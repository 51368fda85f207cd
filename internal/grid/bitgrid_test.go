package grid

import (
	"math/rand"
	"testing"
)

// TestBitGridRoundTrip: SetBools/Bools/Get agree with a plain []bool
// model at widths around the word boundary, and the padding-bits-zero
// invariant holds after every mutation.
func TestBitGridRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, w := range []int{1, 2, 63, 64, 65, 127, 128, 129} {
		for _, h := range []int{1, 3, 5} {
			g := NewBitGrid(w, h)
			model := make([]bool, w*h)
			for i := range model {
				model[i] = rng.Intn(2) == 0
			}
			g.SetBools(model)
			checkPadding(t, g)
			if got := g.Bools(nil); len(got) != len(model) {
				t.Fatalf("%dx%d: Bools len %d, want %d", w, h, len(got), len(model))
			} else {
				for i := range model {
					if got[i] != model[i] {
						t.Fatalf("%dx%d: Bools[%d] = %t, want %t", w, h, i, got[i], model[i])
					}
				}
			}
			count := 0
			for i := range model {
				x, y := i%w, i/w
				if g.Get(x, y) != model[i] {
					t.Fatalf("%dx%d: Get(%d,%d) = %t, want %t", w, h, x, y, g.Get(x, y), model[i])
				}
				if model[i] {
					count++
				}
			}
			if g.Count() != count {
				t.Fatalf("%dx%d: Count = %d, want %d", w, h, g.Count(), count)
			}

			// Point mutations.
			for trial := 0; trial < 50; trial++ {
				x, y, v := rng.Intn(w), rng.Intn(h), rng.Intn(2) == 0
				g.Set(x, y, v)
				model[y*w+x] = v
			}
			checkPadding(t, g)
			got := g.Bools(make([]bool, 0, w*h))
			for i := range model {
				if got[i] != model[i] {
					t.Fatalf("%dx%d after Set: cell %d = %t, want %t", w, h, i, got[i], model[i])
				}
			}

			// Clone independence and equality.
			c := g.Clone()
			if !c.Equal(g) {
				t.Fatalf("%dx%d: clone not equal", w, h)
			}
			c.Set(0, 0, !c.Get(0, 0))
			if c.Equal(g) {
				t.Fatalf("%dx%d: clone shares storage", w, h)
			}

			// Fill keeps padding clear.
			g.Fill(true)
			checkPadding(t, g)
			if g.Count() != w*h {
				t.Fatalf("%dx%d: Fill(true) Count = %d, want %d", w, h, g.Count(), w*h)
			}
			g.Fill(false)
			if g.Count() != 0 {
				t.Fatalf("%dx%d: Fill(false) Count = %d", w, h, g.Count())
			}
		}
	}
}

// checkPadding asserts the invariant documented on BitGrid: lanes at or
// beyond Width%64 in each row's last word are zero.
func checkPadding(t *testing.T, g *BitGrid) {
	t.Helper()
	mask := g.LastWordMask()
	for y := 0; y < g.Height(); y++ {
		w := g.Words()[(y+1)*g.WordsPerRow()-1]
		if w&^mask != 0 {
			t.Fatalf("row %d last word has padding bits set: %#x &^ %#x", y, w, mask)
		}
	}
}

// TestBitGridMasks pins the valid-lane masks at the word boundary.
func TestBitGridMasks(t *testing.T) {
	cases := []struct {
		width int
		last  uint64
	}{
		{1, 1},
		{63, 1<<63 - 1},
		{64, ^uint64(0)},
		{65, 1},
		{128, ^uint64(0)},
	}
	for _, c := range cases {
		g := NewBitGrid(c.width, 2)
		if got := g.LastWordMask(); got != c.last {
			t.Errorf("width %d: LastWordMask = %#x, want %#x", c.width, got, c.last)
		}
		for k := 0; k < g.WordsPerRow()-1; k++ {
			if g.WordMask(k) != ^uint64(0) {
				t.Errorf("width %d: WordMask(%d) not full", c.width, k)
			}
		}
		if g.WordMask(g.WordsPerRow()-1) != c.last {
			t.Errorf("width %d: WordMask(last) = %#x, want %#x",
				c.width, g.WordMask(g.WordsPerRow()-1), c.last)
		}
	}
}

// TestBitGridPanics: constructor and accessors reject invalid inputs.
func TestBitGridPanics(t *testing.T) {
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("NewBitGrid(0,1)", func() { NewBitGrid(0, 1) })
	expectPanic("NewBitGrid(1,-1)", func() { NewBitGrid(1, -1) })
	g := NewBitGrid(4, 4)
	expectPanic("Get out of range", func() { g.Get(4, 0) })
	expectPanic("Set out of range", func() { g.Set(0, -1, true) })
	expectPanic("SetBools short", func() { g.SetBools(make([]bool, 3)) })
}

// TestBitGridSetBoolsRows pins the word-at-a-time SetBools against Get
// cell by cell on widths around the word boundary, over a grid whose
// previous contents were all ones (so a stale word or padding lane
// would show).
func TestBitGridSetBoolsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, w := range []int{1, 63, 64, 65, 130} {
		for h := 1; h <= 3; h++ {
			g := NewBitGrid(w, h)
			g.Fill(true)
			vals := make([]bool, w*h)
			for i := range vals {
				vals[i] = rng.Intn(2) == 0
			}
			g.SetBools(vals)
			checkPadding(t, g)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if g.Get(x, y) != vals[y*w+x] {
						t.Fatalf("%dx%d: Get(%d,%d) = %t, want %t", w, h, x, y, g.Get(x, y), vals[y*w+x])
					}
				}
			}
		}
	}
}

// BenchmarkBitGridSetBools packs one 512x512 label plane.
func BenchmarkBitGridSetBools(b *testing.B) {
	const side = 512
	rng := rand.New(rand.NewSource(1))
	vals := make([]bool, side*side)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	g := NewBitGrid(side, side)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.SetBools(vals)
	}
}
