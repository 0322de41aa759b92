package coherence

import "testing"

func TestDirectoryFirstTouchMemOwned(t *testing.T) {
	d := NewDirectory()
	if d.Peek(5) != nil {
		t.Fatal("Peek created a line")
	}
	li := d.Get(5)
	if li.Owner != MemOwner {
		t.Fatalf("first touch owner = %d, want MemOwner", li.Owner)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}
	if d.Get(5) != li {
		t.Fatal("Get not idempotent")
	}
}

func TestWaiterFIFO(t *testing.T) {
	li := &LineInfo{Owner: MemOwner}
	if li.PendingInv() {
		t.Fatal("empty line has PendingInv")
	}
	if li.HeadWaiter() != nil {
		t.Fatal("HeadWaiter on empty queue")
	}
	if err := li.Enqueue(Waiter{Core: 1, Write: true, Broadcast: 10}); err != nil {
		t.Fatal(err)
	}
	if err := li.Enqueue(Waiter{Core: 2, Broadcast: 20}); err != nil {
		t.Fatal(err)
	}
	if err := li.Enqueue(Waiter{Core: 1, Broadcast: 30}); err == nil {
		t.Fatal("duplicate core enqueue must fail")
	}
	if !li.PendingInv() {
		t.Fatal("PendingInv false with waiters")
	}
	if h := li.HeadWaiter(); h == nil || h.Core != 1 {
		t.Fatalf("head = %+v", h)
	}
	w := li.PopWaiter()
	if w.Core != 1 || !w.Write || w.Broadcast != 10 {
		t.Fatalf("pop = %+v", w)
	}
	if li.PopWaiter().Core != 2 {
		t.Fatal("FIFO order broken")
	}
	if li.PendingInv() {
		t.Fatal("drained queue still pending")
	}
}

func TestSharerBitmask(t *testing.T) {
	li := &LineInfo{Owner: MemOwner}
	li.AddSharer(0)
	li.AddSharer(3)
	li.AddSharer(63)
	if !li.IsSharer(0) || !li.IsSharer(3) || !li.IsSharer(63) || li.IsSharer(1) {
		t.Fatal("sharer bits wrong")
	}
	if want := uint64(1 | 1<<3 | 1<<63); li.Sharers != want {
		t.Fatalf("Sharers = %#x, want %#x", li.Sharers, want)
	}
	li.RemoveSharer(3)
	if li.IsSharer(3) {
		t.Fatal("RemoveSharer failed")
	}
	// Removing an absent sharer is a no-op.
	li.RemoveSharer(7)
	if !li.IsSharer(0) || !li.IsSharer(63) {
		t.Fatal("RemoveSharer clobbered other bits")
	}
}

func TestForEach(t *testing.T) {
	d := NewDirectory()
	d.Get(1)
	d.Get(2)
	d.Get(3)
	n := 0
	d.ForEach(func(uint64, *LineInfo) { n++ })
	if n != 3 {
		t.Fatalf("ForEach visited %d, want 3", n)
	}
}
