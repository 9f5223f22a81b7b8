package vtime

import (
	"testing"
	"testing/quick"
)

func TestVTimeInfinity(t *testing.T) {
	if !Infinity.IsInf() {
		t.Fatal("Infinity.IsInf() = false")
	}
	if VTime(0).IsInf() {
		t.Fatal("0.IsInf() = true")
	}
	if Infinity.String() != "inf" {
		t.Fatalf("Infinity.String() = %q", Infinity.String())
	}
	if VTime(42).String() != "42" {
		t.Fatalf("VTime(42).String() = %q", VTime(42).String())
	}
}

func TestMinMaxV(t *testing.T) {
	cases := []struct{ a, b, min VTime }{
		{1, 2, 1},
		{2, 1, 1},
		{5, 5, 5},
		{Infinity, 3, 3},
		{-1, 0, -1},
	}
	for _, c := range cases {
		if got := MinV(c.a, c.b); got != c.min {
			t.Errorf("MinV(%v,%v) = %v, want %v", c.a, c.b, got, c.min)
		}
	}
}

func TestMinVProperties(t *testing.T) {
	// MinV is commutative and idempotent; Infinity is its identity.
	f := func(a, b int64) bool {
		x, y := VTime(a), VTime(b)
		return MinV(x, y) == MinV(y, x) &&
			MinV(x, x) == x &&
			MinV(x, Infinity) == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSat(t *testing.T) {
	cases := []struct{ a, b, want VTime }{
		{0, 0, 0},
		{10, 5, 15},
		{10, -5, 5},
		{Infinity, 1, Infinity},
		{1, Infinity, Infinity},
		{Infinity, Infinity, Infinity},
		{Infinity - 1, 1, Infinity},    // exact saturation boundary
		{Infinity - 1, 1000, Infinity}, // overflow past the boundary
		{Infinity - 1000, 999, Infinity - 1},
	}
	for _, c := range cases {
		if got := AddSat(c.a, c.b); got != c.want {
			t.Errorf("AddSat(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAddSatUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddSat underflow did not panic")
		}
	}()
	AddSat(VTime(-1<<63), VTime(-1))
}

func TestAdvance(t *testing.T) {
	if got := Advance(10, 5); got != 15 {
		t.Fatalf("Advance(10,5) = %v", got)
	}
	if got := Advance(Infinity, 5); !got.IsInf() {
		t.Fatalf("Advance(Infinity,5) = %v", got)
	}
	if got := Advance(Infinity-1, 2); !got.IsInf() {
		t.Fatalf("Advance(Infinity-1,2) = %v", got)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance with negative delay did not panic")
		}
	}()
	Advance(10, -1)
}

func TestAddSatProperties(t *testing.T) {
	// AddSat is commutative, saturates at Infinity, and agrees with plain
	// addition whenever the exact sum is representable and non-negative.
	f := func(a, b uint32) bool {
		x, y := VTime(a), VTime(b)
		return AddSat(x, y) == AddSat(y, x) &&
			AddSat(x, y) == x+y &&
			AddSat(x, Infinity).IsInf()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModelTimeUnits(t *testing.T) {
	if Microsecond != 1000 {
		t.Fatalf("Microsecond = %d ns", Microsecond)
	}
	if Second != 1e9 {
		t.Fatalf("Second = %d ns", Second)
	}
	if got := (2 * Second).Seconds(); got != 2.0 {
		t.Fatalf("(2s).Seconds() = %v", got)
	}
	if ModelInfinity.String() != "inf" {
		t.Fatalf("ModelInfinity.String() = %q", ModelInfinity.String())
	}
}

func TestTransferTime(t *testing.T) {
	// 1500 bytes over 150 MB/s is 10 microseconds.
	got := TransferTime(1500, 150e6)
	if got != 10*Microsecond {
		t.Fatalf("TransferTime = %v, want 10us", got)
	}
	if TransferTime(0, 1e9) != 0 {
		t.Fatal("zero-size transfer should cost 0")
	}
	if TransferTime(1, 1e18) < 1 {
		t.Fatal("nonempty transfer must take at least 1 ns")
	}
}

func TestTransferTimePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for nonpositive bandwidth")
		}
	}()
	TransferTime(10, 0)
}

// TestTransferMemoIsTransferTime: whatever mix of sizes and bandwidths a
// memo is asked, hit or miss, full or emptied, the answer is TransferTime's,
// and asking allocates nothing.
func TestTransferMemoIsTransferTime(t *testing.T) {
	f := func(sizes []int32, bws []uint8) bool {
		var m TransferMemo
		for i, sz := range sizes {
			bw := 132e6
			if len(bws) > 0 && bws[i%len(bws)]%16 == 0 {
				bw = 160e6 + float64(bws[i%len(bws)]) // a rare change of bandwidth
			}
			size := int(sz % 9 * 61) // nine sizes, more than the memo holds; zero among them
			if i%7 == 0 {
				size = int(sz) // and the odd arbitrary one, negatives included
			}
			if got, want := m.Time(size, bw), TransferTime(size, bw); got != want {
				t.Logf("Time(%d, %v) = %v, TransferTime gives %v", size, bw, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	var m TransferMemo
	if n := testing.AllocsPerRun(100, func() { m.Time(61, 132e6); m.Time(122, 132e6); m.Time(1<<40, 132e6) }); n != 0 {
		t.Fatalf("memo lookups allocate %v times", n)
	}
}

func TestCycles(t *testing.T) {
	// 66 cycles at 66 MHz is 1 microsecond.
	got := Cycles(66, 66e6)
	if got != Microsecond {
		t.Fatalf("Cycles(66, 66MHz) = %v, want 1us", got)
	}
	if Cycles(0, 66e6) != 0 {
		t.Fatal("zero cycles should cost 0")
	}
	if Cycles(1, 1e18) < 1 {
		t.Fatal("nonzero cycles must take at least 1 ns")
	}
}

func TestCyclesMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return Cycles(x, 66e6) <= Cycles(y, 66e6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxM(t *testing.T) {
	if MinM(3, 5) != 3 || MinM(5, 3) != 3 {
		t.Fatal("MinM")
	}
	if MaxM(3, 5) != 5 || MaxM(5, 3) != 5 {
		t.Fatal("MaxM")
	}
}

func TestModelTimeString(t *testing.T) {
	if (1500 * Nanosecond).String() != "1.5µs" {
		t.Fatalf("String = %q", (1500 * Nanosecond).String())
	}
	if (2 * Second).Duration() != 2*1e9 {
		t.Fatal("Duration")
	}
}

func TestCyclesPanicsOnBadFrequency(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Cycles(10, 0)
}
