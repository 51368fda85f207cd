package simnet

// FrontierClear reports whether both frontier lane planes of f are
// all-zero, the state every run leaves behind.
func FrontierClear(f *BitField) bool {
	for wi := range f.front {
		if f.front[wi] != 0 || f.nextFront[wi] != 0 {
			return false
		}
	}
	return true
}

// DirtyWords returns the words the next run drains into its first wave,
// in ascending order.
func DirtyWords(f *BitField) []int { return append([]int(nil), f.dirty.Sorted()...) }
