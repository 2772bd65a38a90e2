package client

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// TestWriteThroughMatchesStore: after a create, an owner overwrite and a
// chmod that revokes (immediately or lazily) or grants, the metadata the
// owner's session wrote through to its cache deep-equals what a session
// with no cache opens from the store, for files and directories under
// both schemes.
func TestWriteThroughMatchesStore(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		name := "immediate"
		if lazy {
			name = "lazy"
		}
		t.Run(name, func(t *testing.T) {
			schemes(t, func(t *testing.T, w *world) {
				s, err := Mount(Config{Store: w.store, User: fixUser["alice"], Registry: fixReg, Layout: w.eng,
					FSID: "testfs", CacheBytes: -1, BlockSize: 64, LazyRevocation: lazy})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				steps := []struct {
					name, path string
					run        func() error
				}{
					{"create file", "/f", func() error { return s.WriteFile("/f", bytes.Repeat([]byte("a"), 150), 0o644) }},
					{"overwrite", "/f", func() error { return s.WriteFile("/f", bytes.Repeat([]byte("b"), 90), 0o644) }},
					{"chmod revoke file", "/f", func() error { return s.Chmod("/f", 0o600) }},
					{"overwrite after revoke", "/f", func() error { return s.WriteFile("/f", []byte("rotated"), 0o600) }},
					{"chmod grant file", "/f", func() error { return s.Chmod("/f", 0o640) }},
					{"mkdir", "/d", func() error { return s.Mkdir("/d", 0o755) }},
					{"chmod revoke dir", "/d", func() error { return s.Chmod("/d", 0o700) }},
					{"chmod grant dir", "/d", func() error { return s.Chmod("/d", 0o750) }},
				}
				for _, step := range steps {
					if err := step.run(); err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
					r, err := s.resolveRef(step.path)
					if err != nil {
						t.Fatal(err)
					}
					v, ok := s.cache.Peek(ckMeta + meta.MetaKey(r.ino, r.variant))
					if !ok {
						t.Fatalf("%s: the owner's metadata of %s is not cached", step.name, step.path)
					}
					got := v.(*meta.Metadata)
					fresh := w.mountFresh("alice", 0)
					_, want, err := fresh.resolve(step.path)
					fresh.Close()
					if err != nil {
						t.Fatal(err)
					}
					// SignKeys expand lazily, so the keys compare by their
					// encoding; the attributes compare field by field.
					if !reflect.DeepEqual(got.Attr, want.Attr) || !bytes.Equal(got.Encode(), want.Encode()) {
						t.Errorf("%s: cached metadata of %s\n %+v\nstore holds\n %+v", step.name, step.path, got.Attr, want.Attr)
					}
				}
			})
		})
	}
}

// TestFailedCommitDropsWriteThrough: when the store refuses a batch,
// the session keeps none of what the operation wrote through to its
// cache (metadata, blocks, parent tables): its next stat, read and
// listing agree with the store.
func TestFailedCommitDropsWriteThrough(t *testing.T) {
	w, ps := probeWorld(t)
	s := w.as("alice")
	if err := s.WriteFile("/f", []byte("content"), 0o644); err != nil {
		t.Fatal(err)
	}
	ps.failPuts(ssp.ErrDeadline)
	for _, op := range []struct {
		name string
		run  func() error
	}{
		{"chmod", func() error { return s.Chmod("/f", 0o600) }},
		{"write", func() error { return s.WriteFile("/f", []byte("lost"), 0o644) }},
		{"create", func() error { return s.WriteFile("/g", []byte("lost"), 0o644) }},
		{"remove", func() error { return s.Remove("/f") }},
		{"rename", func() error { return s.Rename("/f", "/h") }},
		{"chown", func() error { return s.Chown("/f", "bob", "eng") }},
	} {
		if err := op.run(); !errors.Is(err, ssp.ErrDeadline) {
			t.Fatalf("%s with the store refusing writes: %v", op.name, err)
		}
	}
	ps.failPuts(nil)
	fresh := w.mountFresh("alice", 0)
	defer fresh.Close()
	if got, err := s.ReadDir("/"); err != nil || !reflect.DeepEqual(got, []string{"f"}) {
		t.Errorf("ls / after the failed writes = %v, %v; want [f]", got, err)
	}
	want, werr := fresh.Stat("/f")
	got, gerr := s.Stat("/f")
	if gerr != nil || werr != nil || got != want || got.Perm != 0o644 || got.Owner != "alice" {
		t.Errorf("stat after the failed writes = %+v, %v; the store holds %+v, %v", got, gerr, want, werr)
	}
	if data, err := s.ReadFile("/f"); err != nil || string(data) != "content" {
		t.Errorf("read after the failed writes = %q, %v; want the stored content", data, err)
	}
}

// TestRekeyDropsOldBlocksWithoutList: an immediate-revocation chmod of a
// multi-block file deletes every block of the old data generation,
// taking their numbers from the manifest, not from a List at the SSP.
func TestRekeyDropsOldBlocksWithoutList(t *testing.T) {
	fixture(t)
	mem := ssp.NewMemStore()
	wb := ssp.NewWriteBehind(mem, ssp.WriteBehindOptions{})
	t.Cleanup(func() { _ = wb.Close() }) // the test's writes were checked through Barrier
	ps := &probeStore{BlobStore: wb}
	w := newWorld(t, layout.NewScheme2(fixReg), ps)
	alice := w.as("alice")
	content := bytes.Repeat([]byte("0123456789"), 50) // 8 blocks of 64 B
	if err := alice.WriteFile("/s", content, 0o644); err != nil {
		t.Fatal(err)
	}
	r, m, err := alice.resolve("/s")
	if err != nil {
		t.Fatal(err)
	}
	oldGen := m.Attr.DataGen
	lists := ps.listCalls()
	if err := alice.Chmod("/s", 0o600); err != nil {
		t.Fatal(err)
	}
	if n := ps.listCalls() - lists; n != 0 {
		t.Errorf("chmod made %d List calls, want 0", n)
	}
	if err := wb.Barrier(); err != nil {
		t.Fatal(err)
	}
	if old, err := mem.List(wire.NSData, meta.BlockPrefix(r.ino, oldGen)); err != nil || len(old) != 0 {
		t.Errorf("old generation after the re-key: %d blobs, %v; want none", len(old), err)
	}
	if cur, err := mem.List(wire.NSData, meta.BlockPrefix(r.ino, oldGen+1)); err != nil || len(cur) != 8 {
		t.Errorf("new generation: %d blobs, %v; want 8", len(cur), err)
	}
	fresh := w.mountFresh("alice", 0)
	defer fresh.Close()
	if got, err := fresh.ReadFile("/s"); err != nil || !bytes.Equal(got, content) {
		t.Errorf("read after the re-key: %d bytes, %v", len(got), err)
	}
	bob := w.mountFresh("bob", -1)
	defer bob.Close()
	if _, err := bob.ReadFile("/s"); !errors.Is(err, types.ErrPermission) {
		t.Errorf("bob's read after the revoke: %v, want ErrPermission", err)
	}
}
