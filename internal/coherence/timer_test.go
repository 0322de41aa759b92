package coherence

import (
	"testing"
	"testing/quick"

	"cohort/internal/config"
)

func TestReleaseTimeMSIAndNoCache(t *testing.T) {
	if got := ReleaseTime(100, 250, config.TimerMSI); got != 250 {
		t.Fatalf("MSI release = %d, want 250 (immediate)", got)
	}
	if got := ReleaseTime(100, 250, config.TimerNoCache); got != 250 {
		t.Fatalf("no-cache release = %d, want 250", got)
	}
}

func TestReleaseTimeTimed(t *testing.T) {
	cases := []struct {
		fetched, req int64
		theta        config.Timer
		want         int64
	}{
		{100, 100, 50, 150},  // request at fetch: wait one full period
		{100, 90, 50, 150},   // request before fetch visible: first expiry
		{100, 149, 50, 150},  // just before expiry
		{100, 150, 50, 150},  // exactly at expiry: hand over now
		{100, 151, 50, 200},  // just after expiry: counter replenished
		{100, 349, 50, 350},  // several periods later
		{100, 350, 50, 350},  // exactly at a later expiry
		{0, 1, 1, 1},         // θ=1 ticks every cycle
		{0, 7, 1, 7},         // θ=1: always released at the request cycle
		{100, 500, 300, 700}, // large timer
	}
	for _, c := range cases {
		if got := ReleaseTime(c.fetched, c.req, c.theta); got != c.want {
			t.Errorf("ReleaseTime(%d,%d,%d) = %d, want %d", c.fetched, c.req, c.theta, got, c.want)
		}
	}
}

// Property: the release time is an expiry instant, is ≥ the request time,
// and is < request + θ (the requester waits at most one period).
func TestPropertyReleaseBounds(t *testing.T) {
	f := func(fetchRaw, gapRaw uint16, thetaRaw uint8) bool {
		fetched := int64(fetchRaw)
		req := fetched + int64(gapRaw)
		theta := config.Timer(int32(thetaRaw%200) + 1)
		rel := ReleaseTime(fetched, req, theta)
		if rel < req {
			return false
		}
		if rel >= req+int64(theta)+1 {
			return false
		}
		// Must lie on an expiry instant.
		return (rel-fetched)%int64(theta) == 0 && rel > fetched
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: the cycle-accurate Fig. 3 circuit and the closed-form
// ReleaseTime agree on when a line is handed over.
func TestPropertyCircuitMatchesClosedForm(t *testing.T) {
	f := func(reqDelayRaw uint16, thetaRaw uint8) bool {
		theta := config.Timer(int32(thetaRaw%60) + 1)
		reqAt := int64(reqDelayRaw % 500) // cycle the remote request arrives
		c := NewCountdownCounter(theta)
		// Fetched at cycle 0; first Tick is the end of cycle 1.
		for now := int64(1); now < 1200; now++ {
			act := c.Tick(now >= reqAt && reqAt > 0)
			if act == ActionInvalidate {
				want := ReleaseTime(0, reqAt, theta)
				return now == want
			}
		}
		// No invalidation: only possible when no request arrived.
		return reqAt == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestCountdownCounterMSI(t *testing.T) {
	c := NewCountdownCounter(config.TimerMSI)
	if c.Enable() {
		t.Fatal("MSI counter must be disabled")
	}
	for i := 0; i < 100; i++ {
		if act := c.Tick(false); act != ActionNone {
			t.Fatalf("MSI with no pending: %v", act)
		}
	}
	if act := c.Tick(true); act != ActionInvalidate {
		t.Fatalf("MSI with pending: %v, want invalidate", act)
	}
}

func TestCountdownCounterNoCache(t *testing.T) {
	c := NewCountdownCounter(config.TimerNoCache)
	if act := c.Tick(false); act != ActionInvalidate {
		t.Fatalf("θ=0 must invalidate immediately, got %v", act)
	}
}

func TestCountdownCounterReplenish(t *testing.T) {
	c := NewCountdownCounter(3)
	// Ticks 1,2 no action; tick 3 expires with no pending -> replenish.
	if c.Tick(false) != ActionNone || c.Tick(false) != ActionNone {
		t.Fatal("counter expired early")
	}
	if act := c.Tick(false); act != ActionReplenish {
		t.Fatalf("expiry without pending: %v, want replenish", act)
	}
	if c.Count() != 3 {
		t.Fatalf("after replenish Count = %d, want 3", c.Count())
	}
	// Next expiry with pending -> invalidate.
	c.Tick(true)
	c.Tick(true)
	if act := c.Tick(true); act != ActionInvalidate {
		t.Fatalf("expiry with pending: %v, want invalidate", act)
	}
}

func TestCountdownCounterProtectsDuringPeriod(t *testing.T) {
	c := NewCountdownCounter(10)
	// A pending remote request mid-period must NOT invalidate: that is the
	// whole point of time-based coherence (Fig. 1b).
	for i := 0; i < 9; i++ {
		if act := c.Tick(true); act != ActionNone {
			t.Fatalf("tick %d with pending: %v, want none (protected)", i+1, act)
		}
	}
	if act := c.Tick(true); act != ActionInvalidate {
		t.Fatalf("tick 10: %v, want invalidate", act)
	}
}

func TestNewCountdownCounterInvalidPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCountdownCounter(-5)
}

func TestCounterActionString(t *testing.T) {
	if ActionNone.String() != "none" || ActionInvalidate.String() != "invalidate" || ActionReplenish.String() != "replenish" {
		t.Fatal("action strings wrong")
	}
}

func TestModeLUT(t *testing.T) {
	lut, err := NewModeLUT([]config.Timer{300, 20, 10, config.TimerMSI, config.TimerMSI})
	if err != nil {
		t.Fatal(err)
	}
	if lut.Modes() != 5 {
		t.Fatalf("Modes = %d", lut.Modes())
	}
	th, err := lut.Lookup(1)
	if err != nil || th != 300 {
		t.Fatalf("Lookup(1) = %v, %v", th, err)
	}
	th, err = lut.Lookup(4)
	if err != nil || th != config.TimerMSI {
		t.Fatalf("Lookup(4) = %v, %v", th, err)
	}
	if _, err := lut.Lookup(0); err == nil {
		t.Fatal("Lookup(0) must fail")
	}
	if _, err := lut.Lookup(6); err == nil {
		t.Fatal("Lookup(6) must fail")
	}
}

func TestModeLUTValidation(t *testing.T) {
	if _, err := NewModeLUT(nil); err == nil {
		t.Fatal("empty LUT must fail")
	}
	if _, err := NewModeLUT([]config.Timer{-3}); err == nil {
		t.Fatal("invalid timer must fail")
	}
}

func TestModeLUTIsCopied(t *testing.T) {
	src := []config.Timer{1, 2}
	lut, _ := NewModeLUT(src)
	src[0] = 99
	th, _ := lut.Lookup(1)
	if th != 1 {
		t.Fatal("LUT aliases caller slice")
	}
}

// Property: the circuit and the closed form also agree for the special
// register values — MSI (θ=−1) invalidates exactly when a request is
// pending, θ=0 never retains.
func TestPropertyCircuitSpecialValues(t *testing.T) {
	f := func(reqDelayRaw uint16) bool {
		reqAt := int64(reqDelayRaw%300) + 1
		// MSI: invalidation fires at the first tick with PendingInv high.
		msi := NewCountdownCounter(config.TimerMSI)
		for now := int64(1); now < 400; now++ {
			act := msi.Tick(now >= reqAt)
			if act == ActionInvalidate {
				if now != reqAt {
					return false
				}
				break
			}
			if act == ActionReplenish {
				return false // a disabled counter never replenishes
			}
		}
		// θ=0: invalidates at the very first tick regardless of requests.
		zero := NewCountdownCounter(config.TimerNoCache)
		return zero.Tick(false) == ActionInvalidate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: after an ActionReplenish the counter output equals θ again —
// the Load path of Fig. 3.
func TestPropertyReplenishReloads(t *testing.T) {
	f := func(thetaRaw uint8, rounds uint8) bool {
		theta := config.Timer(int32(thetaRaw%40) + 1)
		c := NewCountdownCounter(theta)
		for r := 0; r < int(rounds%5)+1; r++ {
			for i := int32(0); i < int32(theta)-1; i++ {
				if c.Tick(false) != ActionNone {
					return false
				}
			}
			if c.Tick(false) != ActionReplenish {
				return false
			}
			if c.Count() != int32(theta) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
