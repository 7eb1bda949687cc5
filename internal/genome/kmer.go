package genome

// KmerKey packs the w informative bases selected by a spaced-seed shape
// into a 2-bit-per-base integer key. Keys are used to address the seed
// position table. A k-mer containing N (or any invalid base) has no key.
type KmerKey uint64

// PackKmer packs k consecutive bases (ASCII) into a key, 2 bits per base.
// ok is false if the window contains a non-ACGT character or k > 31.
func PackKmer(seq []byte) (key KmerKey, ok bool) {
	if len(seq) > 31 {
		return 0, false
	}
	for _, b := range seq {
		code := encodeTable[b]
		if code >= CodeN {
			return 0, false
		}
		key = key<<2 | KmerKey(code)
	}
	return key, true
}
