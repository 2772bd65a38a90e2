// Package stats instruments Sharoes operations, decomposing wall-clock time
// into the three components the paper reports in Figure 13: NETWORK (wire
// transfer), CRYPTO (encryption, decryption, signing, verification) and
// OTHER (everything else — serialization, cache management, bookkeeping).
//
// Since the internal/obs observability layer landed, this package is a
// thin adapter: a Recorder is a view over an obs.CostAccount, the same
// accumulator charged by the stopwatches that emit classed trace spans.
// The decomposition reported here and the one recomputed from a trace
// (obs.Decompose) therefore agree by construction — there is one timing
// mechanism, not two.
package stats

import (
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/obs"
)

// Component identifies a cost bucket.
type Component uint8

// Cost components, matching the paper's Figure 13 decomposition.
const (
	Network Component = iota
	Crypto
	Other
)

// String implements fmt.Stringer.
func (c Component) String() string {
	switch c {
	case Network:
		return "NETWORK"
	case Crypto:
		return "CRYPTO"
	default:
		return "OTHER"
	}
}

// class maps a component to its obs cost class.
func (c Component) class() obs.Class {
	switch c {
	case Network:
		return obs.ClassNetwork
	case Crypto:
		return obs.ClassCrypto
	default:
		return obs.ClassOther
	}
}

// Recorder accumulates time per component plus operation and byte counters.
// It is safe for concurrent use. The zero value is ready to use; a nil
// *Recorder discards all measurements, so instrumentation call sites never
// need nil checks. It adapts the legacy API onto obs.CostAccount.
type Recorder struct {
	acc obs.CostAccount
}

// Account exposes the underlying obs accumulator, so span-emitting
// stopwatches can charge the same substrate. Returns nil on a nil
// Recorder (and a nil *obs.CostAccount discards everything).
func (r *Recorder) Account() *obs.CostAccount {
	if r == nil {
		return nil
	}
	return &r.acc
}

// Add charges d to component c.
func (r *Recorder) Add(c Component, d time.Duration) {
	r.Account().AddClass(c.class(), d)
}

// Time starts a timer for component c; call the returned func to stop it.
// Usage: defer r.Time(stats.Crypto)().
func (r *Recorder) Time(c Component) func() {
	return r.Account().Time(c.class())
}

// AddOp counts one completed filesystem operation.
func (r *Recorder) AddOp() {
	r.Account().AddOp()
}

// AddBytes records wire traffic: out is bytes sent to the SSP, in is bytes
// received from it.
func (r *Recorder) AddBytes(out, in int) {
	r.Account().AddBytes(out, in)
}

// Snapshot is a point-in-time copy of a Recorder's counters.
type Snapshot struct {
	Network   time.Duration
	Crypto    time.Duration
	Other     time.Duration
	Ops       int64
	BytesOut  int64
	BytesIn   int64
	CryptoOps int64
}

// Snapshot returns the current counters. Safe on a nil Recorder.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	a := r.Account()
	out, in := a.Bytes()
	return Snapshot{
		Network:   time.Duration(a.ClassNanos(obs.ClassNetwork)),
		Crypto:    time.Duration(a.ClassNanos(obs.ClassCrypto)),
		Other:     time.Duration(a.ClassNanos(obs.ClassOther)),
		Ops:       a.Ops(),
		BytesOut:  out,
		BytesIn:   in,
		CryptoOps: a.CryptoOps(),
	}
}

// Reset zeroes all counters.
func (r *Recorder) Reset() {
	r.Account().Reset()
}

// Sub returns the component-wise difference s - o. Use it to isolate the
// cost of a single operation between two snapshots.
func (s Snapshot) Sub(o Snapshot) Snapshot {
	return Snapshot{
		Network:   s.Network - o.Network,
		Crypto:    s.Crypto - o.Crypto,
		Other:     s.Other - o.Other,
		Ops:       s.Ops - o.Ops,
		BytesOut:  s.BytesOut - o.BytesOut,
		BytesIn:   s.BytesIn - o.BytesIn,
		CryptoOps: s.CryptoOps - o.CryptoOps,
	}
}

// Total returns the sum of the three time components.
func (s Snapshot) Total() time.Duration { return s.Network + s.Crypto + s.Other }

// CryptoFraction returns the CRYPTO share of total time (0 when total is 0).
// The paper's headline claim for Figure 13 is that this stays below 7%.
func (s Snapshot) CryptoFraction() float64 {
	t := s.Total()
	if t == 0 {
		return 0
	}
	return float64(s.Crypto) / float64(t)
}

// String renders the snapshot in a compact human-readable form.
func (s Snapshot) String() string {
	return fmt.Sprintf("net=%v crypto=%v other=%v ops=%d out=%dB in=%dB",
		s.Network.Round(time.Microsecond), s.Crypto.Round(time.Microsecond),
		s.Other.Round(time.Microsecond), s.Ops, s.BytesOut, s.BytesIn)
}

// OpBreakdown is the per-operation cost decomposition used by Figure 13.
type OpBreakdown struct {
	Op      string
	Network time.Duration
	Crypto  time.Duration
	Other   time.Duration
}

// Total returns the total duration of the operation.
func (b OpBreakdown) Total() time.Duration { return b.Network + b.Crypto + b.Other }

// BreakdownFrom derives an OpBreakdown for a named operation that ran
// between snapshots a and b and took wallTotal overall. NETWORK and CRYPTO
// come from the recorder; OTHER is the remainder of wall time, exactly as
// the paper computes it.
func BreakdownFrom(op string, a, b Snapshot, wallTotal time.Duration) OpBreakdown {
	d := b.Sub(a)
	other := wallTotal - d.Network - d.Crypto
	if other < 0 {
		other = 0
	}
	return OpBreakdown{Op: op, Network: d.Network, Crypto: d.Crypto, Other: other}
}
