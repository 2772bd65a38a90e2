package client

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/obs"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// probeStore wraps a BlobStore to count the store calls a session makes,
// record the key count of every BatchGet, and fail manifest reads with a
// chosen error.
type probeStore struct {
	ssp.BlobStore

	mu          sync.Mutex
	calls       int
	batches     []int // keys per BatchGet, in call order
	manifestErr error
}

// note counts one store call; batchGetKeys > 0 records a BatchGet.
func (p *probeStore) note(batchGetKeys int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.calls++
	if batchGetKeys > 0 {
		p.batches = append(p.batches, batchGetKeys)
	}
}

// snapshot returns the call count and the BatchGet key counts so far.
func (p *probeStore) snapshot() (int, []int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls, append([]int(nil), p.batches...)
}

func (p *probeStore) failManifests(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.manifestErr = err
}

func (p *probeStore) manifestFault(ns wire.NS, key string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if ns == wire.NSData && strings.HasSuffix(key, "/manifest") {
		return p.manifestErr
	}
	return nil
}

func (p *probeStore) Get(ns wire.NS, key string) ([]byte, error) {
	p.note(0)
	if err := p.manifestFault(ns, key); err != nil {
		return nil, err
	}
	return p.BlobStore.Get(ns, key)
}

func (p *probeStore) BatchGet(items []wire.KV) ([]wire.KV, error) {
	p.note(len(items))
	for _, it := range items {
		if err := p.manifestFault(it.NS, it.Key); err != nil {
			return nil, err
		}
	}
	return p.BlobStore.BatchGet(items)
}

func (p *probeStore) List(ns wire.NS, prefix string) ([]wire.KV, error) {
	p.note(0)
	return p.BlobStore.List(ns, prefix)
}

func (p *probeStore) Put(ns wire.NS, key string, val []byte) error {
	p.note(0)
	return p.BlobStore.Put(ns, key, val)
}

func (p *probeStore) Delete(ns wire.NS, key string) error {
	p.note(0)
	return p.BlobStore.Delete(ns, key)
}

func (p *probeStore) BatchPut(items []wire.KV) error {
	p.note(0)
	return p.BlobStore.BatchPut(items)
}

// probeWorld is a Scheme-2 filesystem whose sessions talk to the SSP
// through a probeStore.
func probeWorld(t *testing.T) (*world, *probeStore) {
	t.Helper()
	fixture(t)
	ps := &probeStore{BlobStore: ssp.NewMemStore()}
	return newWorld(t, layout.NewScheme2(fixReg), ps), ps
}

// TestStatSurfacesManifestTransportError: with a file's metadata cached
// and its manifest not, a transport failure fetching the manifest is the
// stat's error, not a success that quietly reports the owner-signed
// metadata size (which can lag non-owner writes).
func TestStatSurfacesManifestTransportError(t *testing.T) {
	w, ps := probeWorld(t)
	if err := w.as("alice").WriteFile("/f", []byte("12345"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := w.mountFresh("alice", -1)
	defer s.Close()
	// Listing a file resolves it, which caches its metadata but not its
	// manifest.
	if _, err := s.ReadDir("/f"); !errors.Is(err, types.ErrNotDir) {
		t.Fatalf("ls of a file: %v", err)
	}
	ps.failManifests(ssp.ErrDeadline)
	if info, err := s.Stat("/f"); !errors.Is(err, ssp.ErrDeadline) {
		t.Fatalf("stat with the manifest read failing: info %+v, err %v; want ssp.ErrDeadline", info, err)
	}
	ps.failManifests(nil)
	info, err := s.Stat("/f")
	if err != nil || info.Size != 5 {
		t.Fatalf("stat after the link recovers: %+v, %v", info, err)
	}
}

// populate makes dir with n files f0..f<n-1> of i+1 bytes each, with
// modes cycling through 0644, 0640 and 0600.
func populate(t *testing.T, s *Session, dir string, n int) {
	t.Helper()
	if err := s.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.WriteFile(fmt.Sprintf("%s/f%d", dir, i), bytes.Repeat([]byte("x"), i+1), fileModes[i%len(fileModes)]); err != nil {
			t.Fatal(err)
		}
	}
}

var fileModes = []types.Perm{0o644, 0o640, 0o600}

// metaKeyOf returns the store key of the metadata variant s resolves
// path to.
func metaKeyOf(t *testing.T, s *Session, path string) string {
	t.Helper()
	r, err := s.resolveRef(path)
	if err != nil {
		t.Fatal(err)
	}
	return meta.MetaKey(r.ino, r.variant)
}

// TestStatAheadIntegrity: blobs a stat-ahead batch fetches for siblings
// pass the same verification as a single-entry stat. A tampered or
// swapped sibling fails its own Stat exactly as without stat-ahead, and
// is not cached, so a second Stat goes back to the store; every other
// entry stats right, from the one batch.
func TestStatAheadIntegrity(t *testing.T) {
	const n = 6
	cases := []struct {
		name string
		rule func(t *testing.T, s *Session) ssp.FaultRule
		// tampered: the faulted entry's Stat fails with ErrTampered;
		// otherwise it falls back to metadata attributes.
		tampered bool
	}{
		{"meta-tamper", func(t *testing.T, s *Session) ssp.FaultRule {
			return ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSMeta, KeyPart: metaKeyOf(t, s, "/d/f3")}
		}, true},
		{"manifest-tamper", func(t *testing.T, s *Session) ssp.FaultRule {
			r, err := s.resolveRef("/d/f3")
			if err != nil {
				t.Fatal(err)
			}
			return ssp.FaultRule{Mode: ssp.FaultTamper, NS: wire.NSData, KeyPart: meta.ManifestKey(r.ino)}
		}, false},
		{"meta-swap", func(t *testing.T, s *Session) ssp.FaultRule {
			return ssp.FaultRule{Mode: ssp.FaultSwap, NS: wire.NSMeta,
				KeyPart: metaKeyOf(t, s, "/d/f3"), SwapKey: metaKeyOf(t, s, "/d/f5")}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fixture(t)
			fs := ssp.NewFaultStore(ssp.NewMemStore())
			ps := &probeStore{BlobStore: fs}
			w := newWorld(t, layout.NewScheme2(fixReg), ps)
			populate(t, w.as("alice"), "/d", n)

			s := w.mountFresh("alice", -1)
			defer s.Close()
			names, err := s.ReadDir("/d")
			if err != nil || len(names) != n {
				t.Fatalf("ls /d = %v, %v", names, err)
			}
			fs.AddRule(tc.rule(t, s))

			// f0 carries the batch; the others (f3 aside) come from it.
			for i, name := range names {
				before, _ := ps.snapshot()
				info, err := s.Stat("/d/" + name)
				after, _ := ps.snapshot()
				if name == "f3" {
					switch {
					case tc.tampered && !errors.Is(err, types.ErrTampered):
						t.Fatalf("stat of the faulted f3: %+v, %v; want ErrTampered", info, err)
					case !tc.tampered && (err != nil || info.Perm != fileModes[3%len(fileModes)]):
						t.Fatalf("stat of f3 with its manifest tampered: %+v, %v; want the metadata attributes", info, err)
					}
					continue
				}
				want := fileModes[i%len(fileModes)]
				if err != nil || info.Perm != want || info.Owner != "alice" || info.Size != uint64(i+1) {
					t.Errorf("stat %s = %+v, %v; want perm %v, owner alice, size %d", name, info, err, want, i+1)
				}
				if i > 0 && after != before {
					t.Errorf("stat %s made %d store calls; want 0 after the batch", name, after-before)
				}
			}

			// Nothing unverified was cached: f3 goes back to the store.
			before, _ := ps.snapshot()
			_, _ = s.Stat("/d/f3") // its result was checked above; only its store calls count here
			if after, _ := ps.snapshot(); after == before {
				t.Error("second stat of f3 was served from the cache")
			}
		})
	}
}

// TestStatAheadCoherence: after a create, remove, rename, chmod or write
// in the listed directory, run before any Stat or after one has run a
// batch, every Stat agrees with a freshly mounted session, as does every
// Stat after listing the changed directory again. The steps that rewrite
// the directory's table drop the listing; chmod and write change only the
// child's own blobs and leave the rows, and so the listing, valid.
func TestStatAheadCoherence(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			w, _ := probeWorld(t)
			s := w.as("alice")
			populate(t, s, "/d", 6)
			s.Refresh()
			all := []string{"f0", "f1", "f2", "f3", "f4", "f5", "new", "g2"}
			list := func() {
				t.Helper()
				names, err := s.ReadDir("/d")
				if err != nil || len(names) == 0 {
					t.Fatalf("ls /d = %v, %v", names, err)
				}
				if warm {
					if _, err := s.Stat("/d/" + names[0]); err != nil {
						t.Fatal(err)
					}
				}
			}
			compare := func(when string) {
				t.Helper()
				fresh := w.mountFresh("alice", -1)
				defer fresh.Close()
				for _, name := range all {
					p := "/d/" + name
					got, gerr := s.Stat(p)
					want, werr := fresh.Stat(p)
					if errClass(gerr) != errClass(werr) || got != want {
						t.Errorf("%s: stat %s = %+v, %v; fresh mount says %+v, %v", when, p, got, gerr, want, werr)
					}
				}
			}
			steps := []struct {
				name          string
				run           func() error
				rewritesTable bool
			}{
				{"create", func() error { return s.Create("/d/new", 0o640) }, true},
				{"remove", func() error { return s.Remove("/d/f1") }, true},
				{"rename", func() error { return s.Rename("/d/f2", "/d/g2") }, true},
				{"chmod revoke", func() error { return s.Chmod("/d/f3", 0o600) }, false},
				{"chmod grant", func() error { return s.Chmod("/d/f5", 0o644) }, false},
				{"write", func() error { return s.WriteFile("/d/f4", []byte("grown to a longer file"), 0o644) }, false},
			}
			for _, step := range steps {
				list()
				if err := step.run(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if step.rewritesTable && s.listing != nil {
					t.Fatalf("%s rewrote /d's table but the session still holds its listing", step.name)
				}
				compare("after " + step.name)
			}
			list()
			compare("listed again")
		})
	}
}

// TestStatAheadSkipsSplitPoints: a Scheme-2 split-point row in a listed
// directory is left out of the batch and still stats through the user's
// sealed pointer.
func TestStatAheadSkipsSplitPoints(t *testing.T) {
	w, ps := probeWorld(t)
	alice := w.as("alice")
	if err := alice.Mkdir("/proj", 0o755); err != nil {
		t.Fatal(err)
	}
	// carol is "other" on /proj but group on qa-docs, dave is other on
	// both: their row diverges, so qa-docs is a split point for them.
	if err := alice.Mkdir("/proj/qa-docs", 0o750); err != nil {
		t.Fatal(err)
	}
	if err := alice.Chown("/proj/qa-docs", "alice", "qa"); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"/proj/a", "/proj/zz"} {
		if err := alice.WriteFile(f, []byte(f), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	carol := w.mountFresh("carol", -1)
	defer carol.Close()
	names, err := carol.ReadDir("/proj")
	if err != nil {
		t.Fatal(err)
	}
	split := false
	for _, e := range carol.listing.rows {
		split = split || (e.Name == "qa-docs" && e.Split)
	}
	if !split {
		t.Fatal("qa-docs is not a split point in carol's listing; the test does not exercise the split path")
	}
	cold := w.mountFresh("carol", -1)
	defer cold.Close()
	for i, name := range names {
		p := "/proj/" + name
		_, before := ps.snapshot()
		got, gerr := carol.Stat(p)
		_, after := ps.snapshot()
		want, werr := cold.Stat(p)
		if gerr != nil || werr != nil || got != want {
			t.Errorf("stat %s after ls = %+v, %v; without ls %+v, %v", p, got, gerr, want, werr)
		}
		// The first stat batches a and zz: two entries of two keys each.
		if got := after[len(before):]; i == 0 && (len(got) != 1 || got[0] != 4) {
			t.Errorf("stat %s issued BatchGets of %v keys, want one of 4 (qa-docs left out)", p, got)
		}
	}
}

// TestStatAheadCost pins the store calls of ls -lR over D directories of
// F files after Refresh. The count is the same for every F up to the
// window: one batch per listed directory, not one round trip per stat.
func TestStatAheadCost(t *testing.T) {
	const dirs = 3
	var pinned int
	for _, files := range []int{2, 5, 9} {
		w, ps := probeWorld(t)
		reg := obs.NewRegistry()
		s, err := Mount(Config{Store: ps, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
			FSID: "testfs", CacheBytes: -1, Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Mkdir("/b", 0o755); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < dirs; d++ {
			if err := s.Mkdir(fmt.Sprintf("/b/d%d", d), 0o755); err != nil {
				t.Fatal(err)
			}
			for f := 0; f < files; f++ {
				if err := s.Create(fmt.Sprintf("/b/d%d/f%d", d, f), 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}

		s.Refresh()
		before, _ := ps.snapshot()
		if _, err := s.Stat("/b"); err != nil {
			t.Fatal(err)
		}
		top, err := s.ReadDir("/b")
		if err != nil {
			t.Fatal(err)
		}
		for _, dn := range top {
			if _, err := s.Stat("/b/" + dn); err != nil {
				t.Fatal(err)
			}
			entries, err := s.ReadDir("/b/" + dn)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range entries {
				if _, err := s.Stat("/b/" + dn + "/" + fn); err != nil {
					t.Fatal(err)
				}
			}
		}
		after, _ := ps.snapshot()
		// Stat /b: root metadata, root view, then /b's metadata+manifest
		// batch (3). ls /b: its view (1). Stat of the first directory:
		// one batch for all of them (1). Per directory: its view, and one
		// batch for its files (2 each).
		if want := 3 + 1 + 1 + 2*dirs; after-before != want {
			t.Errorf("F=%d: ls -lR made %d store calls, want %d", files, after-before, want)
		}
		if pinned == 0 {
			pinned = after - before
		} else if after-before != pinned {
			t.Errorf("F=%d: %d store calls, but %d for fewer files", files, after-before, pinned)
		}
		batches := reg.Counter("client.statahead.batches").Value()
		entries := reg.Counter("client.statahead.entries").Value()
		if batches != 1+dirs || entries != int64(dirs+dirs*files) {
			t.Errorf("F=%d: statahead batches %d entries %d, want %d and %d", files, batches, entries, 1+dirs, dirs+dirs*files)
		}
	}
}

// TestStatWithoutListingCost: a Stat that no listing covers — a cold
// mount, after Refresh, or in a directory other than the one listed last
// — still fetches metadata and manifest in one BatchGet of two keys.
func TestStatWithoutListingCost(t *testing.T) {
	w, ps := probeWorld(t)
	alice := w.as("alice")
	populate(t, alice, "/d", 3)
	populate(t, alice, "/e", 3)
	s := w.mountFresh("alice", -1)
	defer s.Close()

	statBatches := func(label, path string) {
		t.Helper()
		_, before := ps.snapshot()
		if _, err := s.Stat(path); err != nil {
			t.Fatal(err)
		}
		_, after := ps.snapshot()
		if got := after[len(before):]; len(got) != 1 || got[0] != 2 {
			t.Errorf("%s: stat %s issued BatchGets of %v keys, want one of 2", label, path, got)
		}
	}
	statBatches("cold mount", "/d/f0")
	if _, err := s.ReadDir("/d"); err != nil {
		t.Fatal(err)
	}
	statBatches("other directory", "/e/f1")
	s.Refresh()
	statBatches("after Refresh", "/d/f1")
}
