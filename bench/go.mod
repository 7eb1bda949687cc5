module darwinwga/bench

go 1.22

require darwinwga v0.0.0

replace darwinwga => ../
