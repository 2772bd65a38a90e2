package main

import (
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// Layer names of the spans the traced run records, one per boundary the
// benchmark decorates from outside the program.
const (
	layerFS      = "fs"      // vfs.FS operations of one session
	layerSess    = "sess"    // the ssp.BlobStore a session sees (write-behind when present)
	layerRemote  = "remote"  // the store below write-behind: shard router or SSP connection
	layerBackend = "backend" // one shard backend's SSP connection
	layerStore   = "store"   // the SSP server's backing store
)

// span is one decorated call. Spans under one session's FS op share that
// op's id; spans no single op caused (write-behind flushes, server-side
// store calls, background replica writes) have op 0 and parent 0.
type span struct {
	layer, method string
	id, parent    uint64
	op            uint64
	start, end    int64 // ns since the tracer's epoch
	bytesIn       int64 // value bytes written into the layer
	client        bool  // the tap sits directly on an ssp.Client
	err           bool  // failed with anything but wire.ErrNotFound
}

func (s span) dur() int64 { return s.end - s.start }

// frame is the innermost open span on a goroutine or session.
type frame struct{ op, span uint64 }

// launch is one backend Get issued for a shard-level Get.
type launch struct {
	start, end int64
	ok         bool
}

// shardGet collects the backend Gets one shard-level Get launched: the
// first replica and any hedges. The shard router issues them on its own
// goroutines, so they are matched to the read by (ns, key).
type shardGet struct {
	span     uint64
	op       uint64
	launches []launch
}

// tracer keeps every span of a traced run in memory until the run ends.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	on    atomic.Bool

	mu     sync.Mutex
	spans  []span
	frames map[uint64]frame     // goroutine id -> innermost open span
	gets   map[string]*shardGet // ns|key -> shard Get in flight
	done   []*shardGet          // shard Gets finished while recording

	connWrites, bytesUp, bytesDown atomic.Int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), frames: map[uint64]frame{}, gets: map[string]*shardGet{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// start drops everything recorded so far (set-up traffic) and begins
// recording; stop ends recording. Calls straddling either edge are kept
// only if they end while recording.
func (t *tracer) start() {
	t.mu.Lock()
	t.spans, t.done = nil, nil
	t.mu.Unlock()
	t.connWrites.Store(0)
	t.bytesUp.Store(0)
	t.bytesDown.Store(0)
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

// recorded returns the spans and router Gets recorded so far.
func (t *tracer) recorded() ([]span, []*shardGet) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans, t.done
}

// storeBytes is the memory the recorded spans hold; nil records nothing.
func (t *tracer) storeBytes() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return uint64(cap(t.spans)) * uint64(unsafe.Sizeof(span{}))
}

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 123 [running]:"). Only the traced run pays for it.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	var id uint64
	for _, c := range buf[len("goroutine "):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// getRole says how a call takes part in matching replica Gets to the
// router Get that launched them.
type getRole uint8

const (
	plainCall      getRole = iota
	shardGetCall           // a router Get: registered under its key while in flight
	backendGetCall         // a replica Get: a child of, and a launch of, the router Get in flight for its key
)

// record runs f as one span of layer. The parent is the session's open FS
// op when sc is set (the session's own store tap, whose calls may come
// from the client's worker goroutines), the router Get in flight for key
// for a backend Get, else the innermost span open on the calling
// goroutine; a call on a goroutine no op is running on gets no parent.
// While f runs the span is its goroutine's innermost, so layers f calls
// on that goroutine become its children.
func (t *tracer) record(layer, method string, sc *sessCtx, role getRole, key string, isClient bool, bytesIn int64, f func() error) error {
	g := goid()
	id := t.ids.Add(1)
	t.mu.Lock()
	prev, had := t.frames[g]
	parent := prev
	if sc != nil {
		parent = sc.current()
	}
	var rec *shardGet
	switch role {
	case shardGetCall:
		rec = &shardGet{span: id, op: parent.op}
		t.gets[key] = rec
	case backendGetCall:
		if rec = t.gets[key]; rec != nil {
			parent = frame{op: rec.op, span: rec.span}
		}
	}
	t.frames[g] = frame{op: parent.op, span: id}
	t.mu.Unlock()

	sp := span{layer: layer, method: method, id: id, parent: parent.span, op: parent.op,
		bytesIn: bytesIn, client: isClient, start: t.now()}
	err := f()
	sp.end = t.now()
	sp.err = err != nil && !errors.Is(err, wire.ErrNotFound)

	t.mu.Lock()
	defer t.mu.Unlock()
	if had {
		t.frames[g] = prev
	} else {
		delete(t.frames, g)
	}
	switch {
	case role == shardGetCall:
		if t.gets[key] == rec {
			delete(t.gets, key)
		}
		if t.on.Load() {
			t.done = append(t.done, rec)
		}
	case role == backendGetCall && rec != nil:
		rec.launches = append(rec.launches, launch{start: sp.start, end: sp.end, ok: err == nil})
	}
	if t.on.Load() {
		t.spans = append(t.spans, sp)
	}
	return err
}

// sessCtx is the open FS op of one session, read by that session's store
// tap, and the workload's class for the next op, set by the goroutine
// driving the session.
type sessCtx struct {
	cur   atomic.Pointer[frame]
	class string
}

func (c *sessCtx) current() frame {
	if f := c.cur.Load(); f != nil {
		return *f
	}
	return frame{}
}

// storeTap decorates an ssp.BlobStore with spans. It forwards the
// optional interfaces layers above type-assert on — ssp.Flusher,
// ssp.Router and io.Closer — with the wrapped store's behaviour when the
// wrapped store lacks them (a no-op Barrier and Close, a single route),
// which is how the layers above treat a store without them. ssp.ViewStore
// changes the server's read path, so only viewTap carries it, and only
// over a store that has it.
type storeTap struct {
	inner   ssp.BlobStore
	t       *tracer
	layer   string
	sc      *sessCtx // set on a session's own tap
	client  bool     // inner is an *ssp.Client
	getRole getRole  // how its Gets take part in hedge matching
}

// viewTap is a storeTap over a store with borrowed reads.
type viewTap struct {
	*storeTap
	views ssp.ViewStore
}

// tapStore wraps inner for layer, keeping exactly its optional read path.
func tapStore(t *tracer, inner ssp.BlobStore, layer string, sc *sessCtx) ssp.BlobStore {
	_, isClient := inner.(*ssp.Client)
	st := &storeTap{inner: inner, t: t, layer: layer, sc: sc, client: isClient}
	if _, ok := inner.(*shard.Store); ok {
		st.getRole = shardGetCall
	} else if layer == layerBackend {
		st.getRole = backendGetCall
	}
	if v, ok := inner.(ssp.ViewStore); ok {
		return &viewTap{storeTap: st, views: v}
	}
	return st
}

func valBytes(items []wire.KV) int64 {
	var n int64
	for _, it := range items {
		n += int64(len(it.Val))
	}
	return n
}

func (s *storeTap) do(method string, bytesIn int64, f func() error) error {
	return s.t.record(s.layer, method, s.sc, plainCall, "", s.client, bytesIn, f)
}

// Get implements ssp.BlobStore.
func (s *storeTap) Get(ns wire.NS, key string) ([]byte, error) {
	var v []byte
	err := s.t.record(s.layer, "get", s.sc, s.getRole, string(rune(ns))+"|"+key, s.client, 0, func() error {
		var err error
		v, err = s.inner.Get(ns, key)
		return err
	})
	return v, err
}

// Put implements ssp.BlobStore.
func (s *storeTap) Put(ns wire.NS, key string, val []byte) error {
	return s.do("put", int64(len(val)), func() error { return s.inner.Put(ns, key, val) })
}

// Delete implements ssp.BlobStore.
func (s *storeTap) Delete(ns wire.NS, key string) error {
	return s.do("delete", 0, func() error { return s.inner.Delete(ns, key) })
}

// List implements ssp.BlobStore.
func (s *storeTap) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	var out []wire.KV
	err := s.do("list", 0, func() error {
		var err error
		out, err = s.inner.List(ns, prefix)
		return err
	})
	return out, err
}

// BatchGet implements ssp.BlobStore.
func (s *storeTap) BatchGet(items []wire.KV) ([]wire.KV, error) {
	var out []wire.KV
	err := s.do("batchget", 0, func() error {
		var err error
		out, err = s.inner.BatchGet(items)
		return err
	})
	return out, err
}

// BatchPut implements ssp.BlobStore.
func (s *storeTap) BatchPut(items []wire.KV) error {
	return s.do("batchput", valBytes(items), func() error { return s.inner.BatchPut(items) })
}

// Stats implements ssp.BlobStore.
func (s *storeTap) Stats() (ssp.Stats, error) {
	var st ssp.Stats
	err := s.do("stats", 0, func() error {
		var err error
		st, err = s.inner.Stats()
		return err
	})
	return st, err
}

// Barrier implements ssp.Flusher.
func (s *storeTap) Barrier() error {
	f, ok := s.inner.(ssp.Flusher)
	if !ok {
		return nil
	}
	return s.do("barrier", 0, f.Barrier)
}

// Routes implements ssp.Router.
func (s *storeTap) Routes() int {
	if rt, ok := s.inner.(ssp.Router); ok {
		return rt.Routes()
	}
	return 1
}

// RouteID implements ssp.Router.
func (s *storeTap) RouteID(ns wire.NS, key string) int {
	if rt, ok := s.inner.(ssp.Router); ok {
		return rt.RouteID(ns, key)
	}
	return 0
}

// Close implements io.Closer.
func (s *storeTap) Close() error {
	if c, ok := s.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// GetView implements ssp.ViewStore.
func (v *viewTap) GetView(ns wire.NS, key string) ([]byte, error) {
	var out []byte
	err := v.do("getview", 0, func() error {
		var err error
		out, err = v.views.GetView(ns, key)
		return err
	})
	return out, err
}

// ListView implements ssp.ViewStore.
func (v *viewTap) ListView(ns wire.NS, prefix string) ([]wire.KV, error) {
	var out []wire.KV
	err := v.do("listview", 0, func() error {
		var err error
		out, err = v.views.ListView(ns, prefix)
		return err
	})
	return out, err
}

// BatchGetView implements ssp.ViewStore.
func (v *viewTap) BatchGetView(items []wire.KV) ([]wire.KV, error) {
	var out []wire.KV
	err := v.do("batchgetview", 0, func() error {
		var err error
		out, err = v.views.BatchGetView(items)
		return err
	})
	return out, err
}

// connTap counts the bytes and write calls on a client-side connection.
type connTap struct {
	net.Conn
	t *tracer
}

func (c *connTap) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.t.on.Load() {
		c.t.bytesDown.Add(int64(n))
	}
	return n, err
}

func (c *connTap) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.t.on.Load() {
		c.t.bytesUp.Add(int64(n))
		c.t.connWrites.Add(1)
	}
	return n, err
}

// fsTap decorates one session's vfs.FS: every op is a root span, named by
// the workload's op class, whose id its store calls inherit through the
// session context.
type fsTap struct {
	inner vfs.FS
	t     *tracer
	sc    *sessCtx
}

func (f *fsTap) op(method string, fn func() error) error {
	id := f.t.ids.Add(1)
	f.sc.cur.Store(&frame{op: id, span: id})
	if f.sc.class != "" {
		method = f.sc.class
	}
	sp := span{layer: layerFS, method: method, id: id, op: id, start: f.t.now()}
	err := fn()
	sp.end = f.t.now()
	f.sc.cur.Store(nil)
	sp.err = err != nil
	if f.t.on.Load() {
		f.t.mu.Lock()
		f.t.spans = append(f.t.spans, sp)
		f.t.mu.Unlock()
	}
	return err
}

func (f *fsTap) Stat(path string) (vfs.Info, error) {
	var out vfs.Info
	err := f.op("stat", func() error {
		var err error
		out, err = f.inner.Stat(path)
		return err
	})
	return out, err
}

func (f *fsTap) Mkdir(path string, perm types.Perm) error {
	return f.op("mkdir", func() error { return f.inner.Mkdir(path, perm) })
}

func (f *fsTap) Create(path string, perm types.Perm) error {
	return f.op("create", func() error { return f.inner.Create(path, perm) })
}

func (f *fsTap) WriteFile(path string, data []byte, perm types.Perm) error {
	return f.op("writefile", func() error { return f.inner.WriteFile(path, data, perm) })
}

func (f *fsTap) Append(path string, data []byte) error {
	return f.op("append", func() error { return f.inner.Append(path, data) })
}

func (f *fsTap) ReadFile(path string) ([]byte, error) {
	var out []byte
	err := f.op("readfile", func() error {
		var err error
		out, err = f.inner.ReadFile(path)
		return err
	})
	return out, err
}

func (f *fsTap) ReadDir(path string) ([]string, error) {
	var out []string
	err := f.op("readdir", func() error {
		var err error
		out, err = f.inner.ReadDir(path)
		return err
	})
	return out, err
}

func (f *fsTap) Chmod(path string, perm types.Perm) error {
	return f.op("chmod", func() error { return f.inner.Chmod(path, perm) })
}

func (f *fsTap) Chown(path string, owner types.UserID, group types.GroupID) error {
	return f.op("chown", func() error { return f.inner.Chown(path, owner, group) })
}

func (f *fsTap) Remove(path string) error {
	return f.op("remove", func() error { return f.inner.Remove(path) })
}

func (f *fsTap) Rename(oldPath, newPath string) error {
	return f.op("rename", func() error { return f.inner.Rename(oldPath, newPath) })
}

func (f *fsTap) SetACL(path string, user types.UserID, rights types.Triplet) error {
	return f.op("setacl", func() error { return f.inner.SetACL(path, user, rights) })
}

func (f *fsTap) RemoveACL(path string, user types.UserID) error {
	return f.op("removeacl", func() error { return f.inner.RemoveACL(path, user) })
}

func (f *fsTap) GetACL(path string) ([]types.ACLEntry, error) {
	var out []types.ACLEntry
	err := f.op("getacl", func() error {
		var err error
		out, err = f.inner.GetACL(path)
		return err
	})
	return out, err
}

func (f *fsTap) Refresh() { f.inner.Refresh() }

func (f *fsTap) Close() error { return f.inner.Close() }
