package cache

import (
	"testing"
	"testing/quick"
)

func newL1() *Cache { return New(16*1024, 64, 1) } // 256 sets, direct-mapped

func TestGeometry(t *testing.T) {
	c := newL1()
	if c.Sets() != 256 || c.Ways() != 1 || c.LineBytes() != 64 {
		t.Fatalf("geometry: sets=%d ways=%d line=%d", c.Sets(), c.Ways(), c.LineBytes())
	}
	llc := New(2*1024*1024, 64, 8)
	if llc.Sets() != 4096 || llc.Ways() != 8 {
		t.Fatalf("LLC geometry: sets=%d ways=%d", llc.Sets(), llc.Ways())
	}
}

func TestBadGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { New(0, 64, 1) },
		func() { New(16*1024, 48, 1) },  // line not power of two
		func() { New(3*64*10, 64, 10) }, // sets = 3
		func() { New(16*1024, 64, 0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestAddrDecomposition(t *testing.T) {
	c := newL1()
	if c.LineAddr(0x1000) != 0x40 {
		t.Fatalf("LineAddr(0x1000) = %#x, want 0x40", c.LineAddr(0x1000))
	}
	// Two addresses in the same line map to the same line address.
	if c.LineAddr(0x1000) != c.LineAddr(0x103f) {
		t.Fatal("same-line addresses got different line addresses")
	}
	if c.LineAddr(0x1000) == c.LineAddr(0x1040) {
		t.Fatal("adjacent lines aliased")
	}
	// Lines 256 apart in line space collide in a 256-set direct-mapped cache.
	if c.SetIndex(5) != c.SetIndex(5+256) {
		t.Fatal("expected set conflict for line+sets")
	}
	if c.SetIndex(5) == c.SetIndex(6) {
		t.Fatal("adjacent lines in same set")
	}
}

func TestLookupFillInvalidate(t *testing.T) {
	c := newL1()
	if c.Lookup(7) != nil {
		t.Fatal("lookup in empty cache hit")
	}
	slot := c.VictimFor(7, nil)
	if slot == nil || slot.Valid() {
		t.Fatal("VictimFor in empty cache must return an invalid slot")
	}
	c.Fill(slot, 7, Shared, 100)
	got := c.Lookup(7)
	if got == nil || got.State != Shared || got.FetchedAt != 100 {
		t.Fatalf("after Fill: %+v", got)
	}
	if c.CountValid() != 1 {
		t.Fatalf("CountValid = %d", c.CountValid())
	}
	c.Invalidate(got)
	if c.Lookup(7) != nil || c.CountValid() != 0 {
		t.Fatal("Invalidate did not empty the slot")
	}
}

func TestFillInvalidPanics(t *testing.T) {
	c := newL1()
	defer func() {
		if recover() == nil {
			t.Fatal("Fill(Invalid) did not panic")
		}
	}()
	c.Fill(c.VictimFor(1, nil), 1, Invalid, 0)
}

func TestDirectMappedConflict(t *testing.T) {
	c := newL1()
	c.Fill(c.VictimFor(5, nil), 5, Modified, 0)
	v := c.VictimFor(5+256, nil) // same set
	if v == nil || !v.Valid() || v.LineAddr != 5 {
		t.Fatalf("direct-mapped conflict must pick resident line, got %+v", v)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(4*64*1, 64, 4) // 1 set, 4 ways
	for i := uint64(0); i < 4; i++ {
		c.Fill(c.VictimFor(i, nil), i, Shared, 0)
	}
	// Touch 0 so 1 becomes LRU.
	c.Touch(c.Lookup(0))
	v := c.VictimFor(99, nil)
	if v.LineAddr != 1 {
		t.Fatalf("LRU victim = %d, want 1", v.LineAddr)
	}
	// Touching 1 moves victim to 2.
	c.Touch(c.Lookup(1))
	if v := c.VictimFor(99, nil); v.LineAddr != 2 {
		t.Fatalf("LRU victim = %d, want 2", v.LineAddr)
	}
}

func TestPinnedVictims(t *testing.T) {
	c := New(2*64, 64, 2) // 1 set, 2 ways
	c.Fill(c.VictimFor(1, nil), 1, Modified, 0)
	c.Fill(c.VictimFor(2, nil), 2, Modified, 0)
	pinned := func(e *Entry) bool { return e.LineAddr == 1 }
	if v := c.VictimFor(3, pinned); v == nil || v.LineAddr != 2 {
		t.Fatalf("pinned victim selection returned %+v, want line 2", v)
	}
	all := func(*Entry) bool { return true }
	if v := c.VictimFor(3, all); v != nil {
		t.Fatalf("all-pinned set must return nil, got %+v", v)
	}
}

func TestForEachAscending(t *testing.T) {
	c := newL1()
	for i := uint64(0); i < 10; i++ {
		c.Fill(c.VictimFor(i, nil), i, Shared, 0)
	}
	var lines []uint64
	c.ForEach(func(e *Entry) { lines = append(lines, e.LineAddr) })
	if len(lines) != 10 {
		t.Fatalf("ForEach visited %d, want 10", len(lines))
	}
	for i := 1; i < len(lines); i++ {
		if lines[i] <= lines[i-1] {
			t.Fatal("ForEach order not deterministic ascending for sequential fills")
		}
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Modified.String() != "M" {
		t.Fatal("State strings wrong")
	}
}

// Property: a cache never holds two entries for the same line address, and
// never holds more valid lines than its capacity, under arbitrary fill
// sequences.
func TestPropertyNoDuplicatesNoOverflow(t *testing.T) {
	f := func(lines []uint16) bool {
		c := New(8*64*2, 64, 2) // 8 sets, 2 ways
		for _, l := range lines {
			la := uint64(l % 64)
			if c.Lookup(la) != nil {
				c.Touch(c.Lookup(la))
				continue
			}
			v := c.VictimFor(la, nil)
			if v == nil {
				return false // unpinned cache must always find a victim
			}
			if v.Valid() {
				c.Invalidate(v)
			}
			c.Fill(v, la, Shared, 0)
		}
		seen := map[uint64]int{}
		c.ForEach(func(e *Entry) { seen[e.LineAddr]++ })
		for _, n := range seen {
			if n != 1 {
				return false
			}
		}
		return c.CountValid() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a line installed into the set it maps to is always found by
// Lookup until invalidated.
func TestPropertyLookupAfterFill(t *testing.T) {
	f := func(lineAddrs []uint32) bool {
		c := New(2*1024*1024, 64, 8)
		for _, l := range lineAddrs {
			la := uint64(l)
			if c.Lookup(la) == nil {
				v := c.VictimFor(la, nil)
				if v.Valid() {
					c.Invalidate(v)
				}
				c.Fill(v, la, Modified, 1)
			}
			if got := c.Lookup(la); got == nil || got.LineAddr != la {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLookupHit(b *testing.B) {
	c := New(2*1024*1024, 64, 8)
	for i := uint64(0); i < 1024; i++ {
		c.Fill(c.VictimFor(i, nil), i, Shared, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c.Lookup(uint64(i)%1024) == nil {
			b.Fatal("unexpected miss")
		}
	}
}

func TestStateOwned(t *testing.T) {
	if Invalid.Owned() || Shared.Owned() {
		t.Fatal("I/S must not be owned")
	}
	if !Exclusive.Owned() || !Modified.Owned() {
		t.Fatal("E/M must be owned")
	}
	if Exclusive.String() != "E" {
		t.Fatalf("Exclusive.String() = %q", Exclusive.String())
	}
}
