package ssp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/wire"
)

// noSleep removes backoff waits from reconnect tests.
func noSleep(time.Duration) {}

// TestReconnectHealsAfterSever: severing the link fails the in-flight
// call with a connection-class error; the wrapper condemns the conn,
// redials and re-issues the read, so a single Get after the cut returns
// the value from the still-running server.
func TestReconnectHealsAfterSever(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })

	if err := rc.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if n := l.SeverConns(); n != 1 {
		t.Fatalf("severed %d conns, want 1", n)
	}
	v, err := rc.Get(wire.NSData, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get after sever = %q, %v, want v", v, err)
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n != 1 {
		t.Errorf("reconnect.drops = %d, want 1", n)
	}
	if n := reg.Counter("ssp.reconnect.success").Value(); n != 1 {
		t.Errorf("reconnect.success = %d, want 1", n)
	}
	if n := reg.Counter("ssp.reconnect.retries").Value(); n != 1 {
		t.Errorf("reconnect.retries = %d, want 1", n)
	}
}

// flappingServer serves a FaultStore that severs every live connection
// on each operation it executes: the op lands, its reply dies on the cut
// link. It returns the fault store (Triggered counts executed ops), a
// dialer, and the count of dials made through it.
func flappingServer(t *testing.T) (*FaultStore, Dialer, *int) {
	t.Helper()
	l := netsim.Listen(netsim.Unlimited)
	fs := NewFaultStore(NewMemStore())
	if err := fs.Inner.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	fs.OnSever(func() { l.SeverConns() })
	fs.AddRule(FaultRule{Mode: FaultFlap, Every: 1})
	srv := NewServer(fs, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	dials := 0
	dial := func() (net.Conn, error) {
		dials++
		return l.Dial()
	}
	return fs, dial, &dials
}

// TestReconnectReadAttemptsBounded: when every connection is severed on
// every call, each idempotent op makes exactly 3 tries and surfaces the
// connection-class error.
func TestReconnectReadAttemptsBounded(t *testing.T) {
	const attempts = 3
	ops := []struct {
		name string
		call func(*ReconnectClient) error
	}{
		{"get", func(rc *ReconnectClient) error { _, err := rc.Get(wire.NSData, "k"); return err }},
		{"batchget", func(rc *ReconnectClient) error {
			_, err := rc.BatchGet([]wire.KV{{NS: wire.NSData, Key: "k"}})
			return err
		}},
		{"list", func(rc *ReconnectClient) error { _, err := rc.List(wire.NSData, "k"); return err }},
		{"delete", func(rc *ReconnectClient) error { return rc.Delete(wire.NSData, "k") }},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			fs, dial, dials := flappingServer(t)
			reg := obs.NewRegistry()
			rc := NewReconnectClient(dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
			t.Cleanup(func() { rc.Close() })

			err := op.call(rc)
			if !connErr(err) {
				t.Fatalf("%s on an always-severed link = %v, want a connection-class error", op.name, err)
			}
			if n := fs.Triggered(); n != attempts {
				t.Errorf("server executed %d %s calls, want %d", n, op.name, attempts)
			}
			if *dials != attempts {
				t.Errorf("dialed %d times, want %d", *dials, attempts)
			}
			if n := reg.Counter("ssp.reconnect.retries").Value(); n != attempts-1 {
				t.Errorf("reconnect.retries = %d, want %d", n, attempts-1)
			}
		})
	}
}

// TestReconnectWritesNotReissued: a Put or BatchPut whose reply dies on
// a severed link may have landed, so it is never re-issued — the server
// runs it at most once and the caller gets the connection-class error.
func TestReconnectWritesNotReissued(t *testing.T) {
	ops := []struct {
		name string
		call func(*ReconnectClient) error
	}{
		{"put", func(rc *ReconnectClient) error { return rc.Put(wire.NSData, "w", []byte("x")) }},
		{"batchput", func(rc *ReconnectClient) error {
			return rc.BatchPut([]wire.KV{{NS: wire.NSData, Key: "w", Val: []byte("x")}})
		}},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			fs, dial, _ := flappingServer(t)
			reg := obs.NewRegistry()
			rc := NewReconnectClient(dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
			t.Cleanup(func() { rc.Close() })

			err := op.call(rc)
			if !connErr(err) {
				t.Fatalf("%s across a sever = %v, want a connection-class error", op.name, err)
			}
			if n := fs.Triggered(); n > 1 {
				t.Errorf("server executed %d %s calls, want at most 1", n, op.name)
			}
			if n := reg.Counter("ssp.reconnect.retries").Value(); n != 0 {
				t.Errorf("reconnect.retries = %d after a write, want 0", n)
			}
		})
	}
}

// TestReconnectStickyGiveup: once MaxRedials consecutive dials fail, the
// client goes sticky — every later call fails fast with
// ErrReconnectFailed and no further dials are attempted.
func TestReconnectStickyGiveup(t *testing.T) {
	dials := 0
	refuse := func() (net.Conn, error) {
		dials++
		return nil, fmt.Errorf("connection refused")
	}
	reg := obs.NewRegistry()
	rc := NewReconnectClient(refuse, ReconnectOptions{MaxRedials: 3, Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })

	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrReconnectFailed) {
		t.Fatalf("Get = %v, want ErrReconnectFailed", err)
	}
	if dials != 3 {
		t.Fatalf("dialed %d times, want exactly MaxRedials=3", dials)
	}
	// Sticky: fails fast, without dialing again.
	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrReconnectFailed) {
		t.Fatalf("second Get = %v, want sticky ErrReconnectFailed", err)
	}
	if dials != 3 {
		t.Fatalf("sticky client dialed again (%d dials)", dials)
	}
	if n := reg.Counter("ssp.reconnect.giveup").Value(); n != 1 {
		t.Errorf("reconnect.giveup = %d, want 1", n)
	}
	if n := reg.Counter("ssp.reconnect.dial_fail").Value(); n != 3 {
		t.Errorf("reconnect.dial_fail = %d, want 3", n)
	}
	if n := reg.Counter("ssp.reconnect.retries").Value(); n != 0 {
		t.Errorf("reconnect.retries = %d; ErrReconnectFailed must not be re-issued", n)
	}
}

// TestReconnectNeverGivesUp: MaxRedials < 0 keeps dialing until the
// backend returns.
func TestReconnectNeverGivesUp(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	fails := 0
	dial := func() (net.Conn, error) {
		if fails < 20 {
			fails++
			return nil, fmt.Errorf("not yet")
		}
		return l.Dial()
	}
	rc := NewReconnectClient(dial, ReconnectOptions{MaxRedials: -1, Sleep: noSleep})
	t.Cleanup(func() { rc.Close() })
	if err := rc.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatalf("Put through 20 dial failures: %v", err)
	}
}

// TestReconnectClose: calls after Close fail with ErrShutdown.
func TestReconnectClose(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep})
	if err := rc.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, ErrShutdown) {
		t.Fatalf("Get after Close = %v, want ErrShutdown", err)
	}
}

// TestReconnectNotFoundDoesNotDrop: a per-key remote status must not
// condemn the connection.
func TestReconnectNotFoundDoesNotDrop(t *testing.T) {
	l := netsim.Listen(netsim.Unlimited)
	srv := NewServer(NewMemStore(), nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	reg := obs.NewRegistry()
	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })
	if _, err := rc.Get(wire.NSData, "missing"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want wire.ErrNotFound", err)
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n != 0 {
		t.Errorf("NotFound dropped the connection (drops=%d)", n)
	}
}

// scriptStore counts the Gets it executes. The first severN of them cut
// every live link before replying (the Get lands, its reply dies); the
// next failN return err.
type scriptStore struct {
	*MemStore
	sever  func()
	mu     sync.Mutex
	severN int
	failN  int
	err    error
	gets   int
}

func (s *scriptStore) Get(ns wire.NS, key string) ([]byte, error) {
	s.mu.Lock()
	s.gets++
	sever, fail := s.severN > 0, s.severN == 0 && s.failN > 0
	if sever {
		s.severN--
	} else if fail {
		s.failN--
	}
	s.mu.Unlock()
	if sever {
		s.sever()
	}
	if fail {
		return nil, s.err
	}
	return s.MemStore.Get(ns, key)
}

// GetView shadows the embedded MemStore's borrowed read, which the
// server prefers, so every Get goes through the script.
func (s *scriptStore) GetView(ns wire.NS, key string) ([]byte, error) { return s.Get(ns, key) }

func (s *scriptStore) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gets
}

// scriptedClient serves st, holding "k"="v", to a fresh ReconnectClient.
func scriptedClient(t *testing.T, st *scriptStore) (*ReconnectClient, *obs.Registry) {
	t.Helper()
	l := netsim.Listen(netsim.Unlimited)
	st.MemStore = NewMemStore()
	st.sever = func() { l.SeverConns() }
	if err := st.MemStore.Put(wire.NSData, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(st, nil)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	reg := obs.NewRegistry()
	rc := NewReconnectClient(l.Dial, ReconnectOptions{Sleep: noSleep, Registry: reg})
	t.Cleanup(func() { rc.Close() })
	return rc, reg
}

// TestReconnectGetReissuedToSuccess: a Get whose reply dies on a cut
// link twice in a row is rescued on its third and last attempt.
func TestReconnectGetReissuedToSuccess(t *testing.T) {
	st := &scriptStore{severN: 2}
	rc, reg := scriptedClient(t, st)

	v, err := rc.Get(wire.NSData, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v, want rescue on attempt 3", v, err)
	}
	if n := st.count(); n != 3 {
		t.Errorf("server executed %d Gets, want 3", n)
	}
	if n := reg.Counter("ssp.reconnect.retries").Value(); n != 2 {
		t.Errorf("reconnect.retries = %d, want 2", n)
	}
}

// TestReconnectNotFoundNotReissued: a NotFound Get reaches the server
// exactly once.
func TestReconnectNotFoundNotReissued(t *testing.T) {
	st := &scriptStore{}
	rc, reg := scriptedClient(t, st)

	if _, err := rc.Get(wire.NSData, "missing"); !errors.Is(err, wire.ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want wire.ErrNotFound", err)
	}
	if n := st.count(); n != 1 {
		t.Errorf("server executed %d Gets, want 1: NotFound must not be re-issued", n)
	}
	if n := reg.Counter("ssp.reconnect.retries").Value(); n != 0 {
		t.Errorf("reconnect.retries = %d, want 0", n)
	}
}

// TestReconnectPermanentErrorNotReissued: a server-side failure crosses
// the wire as a remote status, which is not connection-class: the Get
// runs once, the error surfaces and the connection is kept.
func TestReconnectPermanentErrorNotReissued(t *testing.T) {
	st := &scriptStore{failN: 1, err: errors.New("checksum mismatch")}
	rc, reg := scriptedClient(t, st)

	if _, err := rc.Get(wire.NSData, "k"); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("Get = %v, want the permanent error as wire.ErrRemote", err)
	}
	if n := st.count(); n != 1 {
		t.Errorf("server executed %d Gets; permanent errors must not be re-issued", n)
	}
	if n := reg.Counter("ssp.reconnect.retries").Value(); n != 0 {
		t.Errorf("reconnect.retries = %d, want 0", n)
	}
	if n := reg.Counter("ssp.reconnect.drops").Value(); n != 0 {
		t.Errorf("permanent error dropped the connection (drops=%d)", n)
	}
}

// timeoutErr is a minimal net.Error with Timeout() == true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "i/o timeout" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

var _ net.Error = timeoutErr{}

// TestConnErrClassification: connErr decides both which failures condemn
// the connection and which reads are re-issued. Remote per-key statuses,
// injected server-side write faults (they cross the wire as a remote
// status) and the sticky give-up are never connection-class.
func TestConnErrClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"not-found", wire.ErrNotFound, false},
		{"remote", wire.ErrRemote, false},
		{"reconnect-giveup", ErrReconnectFailed, false},
		{"wrapped-giveup", fmt.Errorf("call: %w", ErrReconnectFailed), false},
		{"giveup-over-eof", fmt.Errorf("%w: dial: %w", ErrReconnectFailed, io.EOF), false},
		{"random", errors.New("disk full"), false},
		{"injected-write", ErrInjectedWrite, false},
		{"deadline", ErrDeadline, true},
		{"wrapped-deadline", fmt.Errorf("get k: %w", ErrDeadline), true},
		{"shutdown", ErrShutdown, true},
		{"eof", io.EOF, true},
		{"unexpected-eof", io.ErrUnexpectedEOF, true},
		{"net-closed", net.ErrClosed, true},
		{"net-timeout", timeoutErr{}, true},
		{"wrapped-timeout", fmt.Errorf("dial: %w", timeoutErr{}), true},
		{"bad-message", wire.ErrBadMessage, true},
	}
	for _, c := range cases {
		if got := connErr(c.err); got != c.want {
			t.Errorf("connErr(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
