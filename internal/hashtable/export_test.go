package hashtable

// kinds are both index kinds, for tests that run under each.
var kinds = []indexKind{hashIndex, denseIndex}

func (k indexKind) String() string {
	if k == denseIndex {
		return "dense"
	}
	return "hash"
}

// sealAs seals t with the given index kind instead of the one Seal would
// choose, where the table allows it (dense needs one key and a key range
// under 2³²), runs the fills, and returns the kind sealed with.
func sealAs(t *Table, kind indexKind) indexKind { return sealWith(t, kind, true) }

// sealWith is sealAs, but with keyBits false no fill sets a key bitmap, so a
// one-key hash table is probed without one.
func sealWith(t *Table, kind indexKind, keyBits bool) indexKind {
	_, span, n := t.keySpan()
	if kind == denseIndex && !t.denseFits(span, n) {
		kind = hashIndex
	}
	for _, f := range t.seal(kind, 3) {
		f.bits = f.bits && keyBits
		f.Run()
	}
	return t.kind
}
