package server

import (
	"reflect"
	"strings"
	"testing"
)

// TestRetainWindow pins the one retention rule: the oldest terminal jobs
// leave while more than retain terminal ones remain, active jobs neither
// leave nor count, order survives, and retain <= 0 keeps everything.
func TestRetainWindow(t *testing.T) {
	// Ids starting with "t" are terminal, the rest active.
	terminal := func(id string) bool { return strings.HasPrefix(id, "t") }
	cases := []struct {
		name   string
		order  string
		retain int
		keep   string
		evict  string
	}{
		{"under the window", "t1 a1 t2", 2, "t1 a1 t2", ""},
		{"oldest terminal leaves", "t1 t2 t3", 2, "t2 t3", "t1"},
		{"active jobs never count", "a1 a2 a3 t1 t2", 2, "a1 a2 a3 t1 t2", ""},
		{"active jobs never leave", "a1 t1 a2 t2 t3 a3", 1, "a1 a2 t3 a3", "t1 t2"},
		{"only active", "a1 a2", 1, "a1 a2", ""},
		{"zero keeps all", "t1 t2 t3", 0, "t1 t2 t3", ""},
		{"negative keeps all", "t1 t2 t3", -1, "t1 t2 t3", ""},
		{"empty", "", 3, "", ""},
	}
	for _, c := range cases {
		keep, evict := RetainWindow(strings.Fields(c.order), terminal, c.retain)
		if !reflect.DeepEqual(append([]string{}, keep...), append([]string{}, strings.Fields(c.keep)...)) ||
			!reflect.DeepEqual(append([]string{}, evict...), append([]string{}, strings.Fields(c.evict)...)) {
			t.Errorf("%s: RetainWindow(%q, %d) = keep %v evict %v, want keep [%s] evict [%s]",
				c.name, c.order, c.retain, keep, evict, c.keep, c.evict)
		}
	}
}
