package stats

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRecorderAddAndSnapshot(t *testing.T) {
	var r Recorder
	r.Add(Network, 100*time.Millisecond)
	r.Add(Crypto, 10*time.Millisecond)
	r.Add(Other, 5*time.Millisecond)
	r.AddOp()
	r.AddBytes(128, 4096)

	s := r.Snapshot()
	if s.Network != 100*time.Millisecond || s.Crypto != 10*time.Millisecond || s.Other != 5*time.Millisecond {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Ops != 1 || s.BytesOut != 128 || s.BytesIn != 4096 {
		t.Errorf("counters = %+v", s)
	}
	if s.CryptoOps != 1 {
		t.Errorf("cryptoOps = %d", s.CryptoOps)
	}
	if s.Total() != 115*time.Millisecond {
		t.Errorf("Total = %v", s.Total())
	}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Add(Network, time.Second)
	r.AddOp()
	r.AddBytes(1, 2)
	r.Reset()
	r.Time(Crypto)()
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil recorder snapshot = %+v", s)
	}
}

func TestTime(t *testing.T) {
	var r Recorder
	stop := r.Time(Crypto)
	time.Sleep(2 * time.Millisecond)
	stop()
	if got := r.Snapshot().Crypto; got < time.Millisecond {
		t.Errorf("timed crypto = %v, want >= 1ms", got)
	}
}

func TestReset(t *testing.T) {
	var r Recorder
	r.Add(Network, time.Second)
	r.AddOp()
	r.AddBytes(10, 20)
	r.Reset()
	if s := r.Snapshot(); s != (Snapshot{}) {
		t.Errorf("after reset: %+v", s)
	}
}

func TestSnapshotSub(t *testing.T) {
	a := Snapshot{Network: time.Second, Ops: 3, BytesIn: 100}
	b := Snapshot{Network: 3 * time.Second, Crypto: time.Second, Ops: 5, BytesIn: 400}
	d := b.Sub(a)
	if d.Network != 2*time.Second || d.Crypto != time.Second || d.Ops != 2 || d.BytesIn != 300 {
		t.Errorf("Sub = %+v", d)
	}
}

func TestCryptoFraction(t *testing.T) {
	s := Snapshot{Network: 93 * time.Millisecond, Crypto: 7 * time.Millisecond}
	if f := s.CryptoFraction(); f < 0.069 || f > 0.071 {
		t.Errorf("CryptoFraction = %v, want ~0.07", f)
	}
	if (Snapshot{}).CryptoFraction() != 0 {
		t.Error("empty snapshot fraction != 0")
	}
}

func TestBreakdownFrom(t *testing.T) {
	a := Snapshot{}
	b := Snapshot{Network: 80 * time.Millisecond, Crypto: 5 * time.Millisecond}
	br := BreakdownFrom("getattr", a, b, 100*time.Millisecond)
	if br.Network != 80*time.Millisecond || br.Crypto != 5*time.Millisecond || br.Other != 15*time.Millisecond {
		t.Errorf("breakdown = %+v", br)
	}
	if br.Total() != 100*time.Millisecond {
		t.Errorf("Total = %v", br.Total())
	}
	// OTHER never goes negative even when instrumented time exceeds wall time.
	br = BreakdownFrom("x", a, b, 10*time.Millisecond)
	if br.Other != 0 {
		t.Errorf("negative other clamped: %v", br.Other)
	}
}

func TestRecorderConcurrency(t *testing.T) {
	var r Recorder
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Add(Network, time.Microsecond)
				r.AddOp()
				r.AddBytes(1, 1)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Ops != 8000 || s.BytesOut != 8000 || s.Network != 8000*time.Microsecond {
		t.Errorf("concurrent totals = %+v", s)
	}
}

func TestComponentString(t *testing.T) {
	if Network.String() != "NETWORK" || Crypto.String() != "CRYPTO" || Other.String() != "OTHER" {
		t.Error("component strings wrong")
	}
}

func TestSnapshotString(t *testing.T) {
	s := Snapshot{Network: time.Millisecond, Ops: 2}
	if str := s.String(); !strings.Contains(str, "ops=2") {
		t.Errorf("String = %q", str)
	}
}
