package main

import (
	"errors"
	"fmt"
	"net"
	"os"

	"github.com/sharoes/sharoes/internal/client"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/migrate"
	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/stats"
	"github.com/sharoes/sharoes/internal/vfs"
)

const fsid = "perfbench"

// principals is the enterprise every workload runs as: alice owns the
// tree, bob reads what alice shares with group eng = {alice, bob}. RSA
// key generation is paid once per process, before any set-up is timed:
// users pay it once, and its prime search is noisy.
type principals struct {
	reg        *keys.Registry
	alice, bob *keys.User
	eng        *keys.Group
}

func newPrincipals() (*principals, error) {
	alice, err := keys.NewUser("alice")
	if err != nil {
		return nil, err
	}
	bob, err := keys.NewUser("bob")
	if err != nil {
		return nil, err
	}
	eng, err := keys.NewGroup("eng")
	if err != nil {
		return nil, err
	}
	reg := keys.NewRegistry()
	reg.AddUser("alice", alice.Public())
	reg.AddUser("bob", bob.Public())
	reg.AddGroup("eng", eng.Priv.Public())
	reg.AddMember("eng", "alice")
	reg.AddMember("eng", "bob")
	return &principals{reg: reg, alice: alice, bob: bob, eng: eng}, nil
}

// stackConfig is the shape of one system under test.
type stackConfig struct {
	profile     netsim.Profile
	shards      int // SSPs; more than one puts a shard router over them
	writeBehind bool
	wbOpt       ssp.WriteBehindOptions
}

// sessionSpec is one mounted client session.
type sessionSpec struct {
	user  *keys.User
	cache int64 // client cache budget in bytes, <0 unlimited
}

// stack is a running Sharoes deployment built from the package
// constructors: per SSP a MemStore, a server and a shaped link, then the
// client-side connections, an optional shard router and write-behind
// layer, and the mounted sessions. With a tracer, every boundary between
// those layers is decorated.
type stack struct {
	profile  netsim.Profile // the shape of every SSP link
	p        *principals
	tr       *tracer
	reg      *obs.Registry   // counters the program exports through its options
	rec      *stats.Recorder // the client's own cost recorder
	eng      layout.Engine
	backings []*ssp.MemStore
	remote   ssp.BlobStore     // below write-behind, untapped
	wb       *ssp.WriteBehind  // nil without write-behind
	sessions []*client.Session // the sessions as the program returns them
	fs       []vfs.FS          // what the workload drives: sessions, tapped when traced
	closers  []func() error
}

// barrier lands every buffered write at the SSPs. Write-behind's barrier
// reaches through to the shard router's.
func (s *stack) barrier() error {
	if s.wb != nil {
		return s.wb.Barrier()
	}
	if f, ok := s.remote.(ssp.Flusher); ok {
		return f.Barrier()
	}
	return nil
}

// close tears the deployment down in reverse build order and waits for
// every goroutine it started.
func (s *stack) close() error {
	var errs []error
	for i := len(s.closers) - 1; i >= 0; i-- {
		errs = append(errs, s.closers[i]())
	}
	return errors.Join(errs...)
}

// storedBytes is the total size of every blob at every SSP, replicas
// included.
func (s *stack) storedBytes() (int64, error) {
	var n int64
	for _, b := range s.backings {
		st, err := b.Stats()
		if err != nil {
			return 0, err
		}
		n += st.Bytes
	}
	return n, nil
}

// bootStore is a store over the backing stores themselves, for work done
// out of band (bootstrap, final verification): the backing store, or a
// router over them with the client-side ring and synchronous replication.
func (s *stack) bootStore() (ssp.BlobStore, func() error, error) {
	if len(s.backings) == 1 {
		return s.backings[0], func() error { return nil }, nil
	}
	bks := make([]shard.Backend, len(s.backings))
	for i, b := range s.backings {
		bks[i] = shard.Backend{ID: fmt.Sprintf("s%d", i), Store: b}
	}
	sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 2, HedgeDelay: -1})
	if err != nil {
		return nil, nil, err
	}
	return sh, sh.Close, nil
}

// verify mounts alice out of band over the backing stores and runs the
// program's integrity walk over the whole tree.
func (s *stack) verify() error {
	store, done, err := s.bootStore()
	if err != nil {
		return err
	}
	sess, err := client.Mount(client.Config{Store: store, User: s.p.alice, Registry: s.p.reg,
		Layout: s.eng, FSID: fsid, CacheBytes: 0})
	if err != nil {
		return errors.Join(err, done())
	}
	rep, err := sess.Verify("/")
	if err == nil && !rep.OK() {
		err = fmt.Errorf("verify: %s; first: %s: %w", rep, rep.Problems[0].Path, rep.Problems[0].Err)
	}
	return errors.Join(err, done())
}

// build starts a deployment of cfg and mounts one session per spec.
func build(p *principals, cfg stackConfig, specs []sessionSpec, tr *tracer) (st *stack, err error) {
	st = &stack{profile: cfg.profile, p: p, tr: tr, reg: obs.NewRegistry(), rec: &stats.Recorder{},
		eng: layout.NewScheme2(p.reg)}
	defer func() {
		if err != nil {
			err = errors.Join(err, st.close())
			st = nil
		}
	}()

	clients := make([]ssp.BlobStore, cfg.shards)
	for i := range clients {
		backing := ssp.NewMemStore()
		st.backings = append(st.backings, backing)
		var served ssp.BlobStore = backing
		if tr != nil {
			served = tapStore(tr, backing, layerStore, nil)
		}
		server := ssp.NewServer(served, nil)
		lis := netsim.Listen(cfg.profile)
		lis.Observe(st.reg)
		serveDone := make(chan struct{})
		go func() {
			defer close(serveDone)
			if err := server.Serve(lis); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: ssp serve: %v\n", err)
			}
		}()
		st.closers = append(st.closers, func() error {
			err := server.Close()
			<-serveDone
			return err
		})
		dial := lis.Dial
		if tr != nil {
			dial = func() (net.Conn, error) {
				c, err := lis.Dial()
				if err != nil {
					return nil, err
				}
				return &connTap{Conn: c, t: tr}, nil
			}
		}
		c, err := ssp.Dial(dial, st.rec)
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, c.Close)
		clients[i] = c
	}

	st.remote = clients[0]
	if cfg.shards > 1 {
		bks := make([]shard.Backend, len(clients))
		for i, c := range clients {
			if tr != nil {
				c = tapStore(tr, c, layerBackend, nil)
			}
			bks[i] = shard.Backend{ID: fmt.Sprintf("s%d", i), Store: c}
		}
		sh, err := shard.New(bks, shard.Options{Replicas: 2, WriteQuorum: 1, Registry: st.reg})
		if err != nil {
			return nil, err
		}
		st.closers = append(st.closers, sh.Close)
		st.remote = sh
	}
	below := st.remote
	if tr != nil {
		below = tapStore(tr, below, layerRemote, nil)
	}
	shared := below
	if cfg.writeBehind {
		opt := cfg.wbOpt
		opt.Registry = st.reg
		st.wb = ssp.NewWriteBehind(below, opt)
		st.closers = append(st.closers, st.wb.Close)
		shared = st.wb
	}

	// Bootstrap and group-key publication run out of band, straight into
	// the backing stores, as the migration tool does.
	boot, bootDone, err := st.bootStore()
	if err != nil {
		return nil, err
	}
	err = migrate.Bootstrap(migrate.Options{Store: boot, Registry: p.reg, Layout: st.eng,
		FSID: fsid, RootOwner: "alice", RootGroup: "eng", RootPerm: 0o755})
	if err == nil {
		err = keys.PublishGroupKey(boot, p.reg, p.eng)
	}
	if err = errors.Join(err, bootDone()); err != nil {
		return nil, err
	}

	for _, spec := range specs {
		store := shared
		var sc *sessCtx
		if tr != nil {
			sc = &sessCtx{}
			store = tapStore(tr, shared, layerSess, sc)
		}
		sess, err := client.Mount(client.Config{Store: store, User: spec.user, Registry: p.reg,
			Layout: st.eng, FSID: fsid, Recorder: st.rec, CacheBytes: spec.cache})
		if err != nil {
			return nil, err
		}
		st.sessions = append(st.sessions, sess)
		var fs vfs.FS = sess
		if tr != nil {
			fs = &fsTap{inner: sess, t: tr, sc: sc}
		}
		st.fs = append(st.fs, fs)
	}
	return st, nil
}
