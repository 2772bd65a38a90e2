package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/cap"
	"github.com/sharoes/sharoes/internal/keys"
	"github.com/sharoes/sharoes/internal/layout"
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/wire"
)

// pathErr wraps err with operation and path context.
func pathErr(op, path string, err error) error {
	var pe *types.PathError
	if errors.As(err, &pe) {
		return err
	}
	return &types.PathError{Op: op, Path: path, Err: err}
}

// Stat implements vfs.FS — the getattr operation: obtain the encrypted
// metadata object from the SSP and decrypt it (paper Figure 8).
func (s *Session) Stat(path string) (vfs.Info, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("stat")()
	_, base, err := types.SplitPath(path)
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	r, err := s.resolveRef(path)
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	s.statAhead(r, base)
	m, man, err := s.statFetch(r)
	if err != nil {
		return vfs.Info{}, pathErr("stat", path, err)
	}
	info := infoFromAttr(base, m.Attr)
	// For files the caller can read, size and mtime come from the
	// writer-signed manifest (metadata is owner-signed and may lag
	// non-owner writes).
	if man != nil {
		info.Size = man.Size
		info.MTime = time.Unix(0, man.MTime)
	}
	return info, nil
}

// statFetch retrieves the object's metadata and — for files the caller
// can read — its manifest, batching both cache misses into one round trip
// so that getattr keeps the paper's single-receive cost profile. A
// manifest that fails verification falls back to the metadata attributes;
// any other manifest fetch error (a dropped link, a deadline) is returned.
func (s *Session) statFetch(r ref) (*meta.Metadata, *meta.Manifest, error) {
	metaCK := ckMeta + meta.MetaKey(r.ino, r.variant)
	manCK := ckManifest + meta.ManifestKey(r.ino)

	if mv, ok := s.cache.Get(metaCK); ok {
		m := mv.(*meta.Metadata)
		if m.Attr.Kind != types.KindFile || m.Keys.DEK.IsZero() {
			return m, nil, nil
		}
		if man, ok := s.cache.Get(manCK); ok {
			return m, man.(*meta.Manifest), nil
		}
		man, err := s.fetchManifest(r, m)
		if errors.Is(err, types.ErrTampered) {
			return m, nil, nil // fall back to metadata attributes
		}
		if err != nil {
			return nil, nil, err
		}
		return m, man, nil
	}

	items, err := s.store.BatchGet([]wire.KV{
		{NS: wire.NSMeta, Key: meta.MetaKey(r.ino, r.variant)},
		{NS: wire.NSData, Key: meta.ManifestKey(r.ino)},
	})
	if err != nil {
		return nil, nil, err
	}
	var metaBlob, manBlob []byte
	for _, it := range items {
		switch {
		case it.NS == wire.NSMeta:
			metaBlob = it.Val
		case it.NS == wire.NSData:
			manBlob = it.Val
		}
	}
	stop := s.crypto("open-stat")
	defer stop()
	return s.openStat(r, metaBlob, manBlob)
}

// openStat verifies and caches what one getattr fetched: the metadata
// blob under the row's MEK/MVK and location AAD, then — for files the
// caller can read — the manifest under the DVK. It is the only way
// statFetch and statAhead let fetched blobs into the cache. It touches no
// session state but the (locked) cache and takes no stopwatch, so
// statAhead can run it on several goroutines; callers charge CRYPTO
// around it.
func (s *Session) openStat(r ref, metaBlob, manBlob []byte) (*meta.Metadata, *meta.Manifest, error) {
	if metaBlob == nil {
		return nil, nil, types.ErrNotExist
	}
	m, err := meta.OpenMetadata(r.mek, r.mvk, meta.MetaAAD(r.ino, r.variant), metaBlob)
	if err != nil {
		return nil, nil, err
	}
	s.cache.Put(ckMeta+meta.MetaKey(r.ino, r.variant), m, int64(len(metaBlob)))
	if m.Attr.Kind != types.KindFile || m.Keys.DEK.IsZero() || manBlob == nil {
		return m, nil, nil
	}
	man, err := s.openManifest(r, m, manBlob)
	if err != nil {
		return m, nil, nil // integrity problems surface on ReadFile
	}
	return m, man, nil
}

func infoFromAttr(name string, a meta.Attr) vfs.Info {
	return vfs.Info{
		Name:  name,
		Inode: a.Inode,
		Kind:  a.Kind,
		Owner: a.Owner,
		Group: a.Group,
		Perm:  a.Perm,
		Size:  a.Size,
		MTime: time.Unix(0, a.MTime),
	}
}

// ReadDir implements vfs.FS: list entry names, requiring the read
// permission on the directory (the "ls" CAP).
func (s *Session) ReadDir(path string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("readdir")()
	r, m, err := s.resolve(path)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	if m.Attr.Kind != types.KindDir {
		return nil, pathErr("readdir", path, types.ErrNotDir)
	}
	if !s.triplet(m.Attr).CanRead() {
		return nil, pathErr("readdir", path, types.ErrPermission)
	}
	view, err := s.openViewOf(r, m)
	if err != nil {
		return nil, pathErr("readdir", path, err)
	}
	names, err := view.Names()
	if err != nil {
		if errors.Is(err, cap.ErrNoKeys) {
			err = types.ErrPermission
		}
		return nil, pathErr("readdir", path, err)
	}
	s.listing = nil
	if tbl, err := view.Full(); err == nil {
		s.listing = &listing{dir: r.ino, rows: tbl.Entries}
	}
	out := make([]string, len(names))
	copy(out, names)
	return out, nil
}

// Mkdir implements vfs.FS: create a new directory — mint its metadata per
// CAP, insert it into every view of the parent's table, and re-encrypt
// those views (paper Figure 8, mkdir row).
func (s *Session) Mkdir(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("mkdir")()
	_, err := s.createObject(path, perm, types.KindDir, nil)
	return pathErrNil("mkdir", path, err)
}

// Create implements vfs.FS: create an empty file (mknod).
func (s *Session) Create(path string, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("create")()
	_, err := s.createObject(path, perm, types.KindFile, []byte{})
	return pathErrNil("create", path, err)
}

func pathErrNil(op, path string, err error) error {
	if err == nil {
		return nil
	}
	return pathErr(op, path, err)
}

// createObject creates a file or directory with optional initial data.
// It returns the new object's full metadata (creator knowledge).
func (s *Session) createObject(path string, perm types.Perm, kind types.ObjKind, data []byte) (*meta.Metadata, error) {
	if err := cap.ValidatePerm(kind, perm); err != nil {
		return nil, err
	}
	pr, pm, base, err := s.resolveParent(path)
	if err != nil {
		return nil, err
	}
	if err := s.requireDirWriter(pm); err != nil {
		return nil, err
	}
	tables, err := s.loadParentTables(pr, pm)
	if err != nil {
		return nil, err
	}
	if _, err := tables[pr.variant].Lookup(base); err == nil {
		return nil, types.ErrExist
	}

	now := time.Now().UnixNano()
	stop := s.crypto("mint-keys")
	child := &meta.Metadata{
		Attr: meta.Attr{
			Inode: randInode(),
			Kind:  kind,
			Owner: s.user.ID,
			Group: pm.Attr.Group, // BSD semantics: inherit the parent's group
			Perm:  perm,
			MTime: now,
			Size:  uint64(len(data)),
		},
		Keys: newObjectKeys(),
	}
	stop()

	var kvs []wire.KV
	switch kind {
	case types.KindDir:
		stop = s.crypto("seal-table")
		tkvs, err := layout.BuildTableKVs(s.eng, child, &meta.DirTable{})
		stop()
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, tkvs...)
	case types.KindFile:
		dkvs, err := s.sealFileData(child, data, now)
		if err != nil {
			return nil, err
		}
		kvs = append(kvs, dkvs...)
	}

	// Parent directory table: add the row to every view.
	grants, err := layout.BuildRows(s.eng, pm, tables, base, child)
	if err != nil {
		return nil, err
	}
	kvs = append(kvs, grants...)
	tkvs, err := s.writeParentTables(pr, pm, tables)
	if err != nil {
		return nil, err
	}
	kvs = append(kvs, tkvs...)

	// Child metadata, one sealed copy per CAP variant. It is sealed last,
	// because it is written through to the cache and nothing may fail
	// between that and the commit, but it leads the batch, ahead of the
	// parent rows that link it.
	kvs = append(s.sealMetaVariants(child), kvs...)
	if err := s.commit(kvs, pr.ino, child.Attr.Inode); err != nil {
		return nil, err
	}
	return child, nil
}

// Remove implements vfs.FS: unlink a file or remove an empty directory.
func (s *Session) Remove(path string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("remove")()
	return pathErrNil("remove", path, s.remove(path))
}

func (s *Session) remove(path string) error {
	pr, pm, base, err := s.resolveParent(path)
	if err != nil {
		return err
	}
	if err := s.requireDirWriter(pm); err != nil {
		return err
	}
	cr, cm, err := s.resolve(path)
	if err != nil {
		return err
	}
	if cm.Attr.Kind == types.KindDir {
		// Emptiness check requires reading the child's table; a caller
		// whose CAP on the child withholds the table key cannot prove
		// emptiness and is refused (fail closed).
		view, err := s.openViewOf(cr, cm)
		if err != nil {
			return err
		}
		if view.Len() > 0 {
			return types.ErrNotEmpty
		}
	}

	tables, err := s.loadParentTables(pr, pm)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		if err := tbl.Remove(base); err != nil && !errors.Is(err, meta.ErrNoEntry) {
			return err
		}
	}
	kvs, err := s.writeParentTables(pr, pm, tables)
	if err != nil {
		return err
	}
	kvs = append(kvs, layout.DeleteMetaKVs(s.eng, cm.Attr)...)
	dkvs, err := s.deleteDataKVs(cr, cm)
	if err != nil {
		return err
	}
	kvs = append(kvs, dkvs...)

	if err := s.commit(kvs, pr.ino, cm.Attr.Inode); err != nil {
		return err
	}
	s.invalidateObject(cm.Attr.Inode)
	return nil
}

// deleteDataKVs enumerates an object's data blobs and split pointers for
// deletion without extra round trips: directory view keys come from the
// layout, file block keys from the manifest, and split pointers are
// deleted blindly per principal (deletes are idempotent). Only when the
// caller cannot read the manifest does it fall back to a server-side
// listing — unlinking never requires decrypting the file, matching *nix
// (write on the parent suffices).
func (s *Session) deleteDataKVs(r ref, m *meta.Metadata) ([]wire.KV, error) {
	var kvs []wire.KV
	switch {
	case m.Attr.Kind == types.KindDir:
		kvs = append(kvs, layout.DeleteTableKVs(s.eng, m.Attr)...)
	case !m.Keys.DEK.IsZero():
		man, err := s.fetchManifest(r, m)
		if err != nil {
			return nil, err
		}
		for i := uint32(0); i < man.NBlocks; i++ {
			kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.BlockKey(r.ino, m.Attr.DataGen, i), Delete: true})
		}
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.ManifestKey(r.ino), Delete: true})
	default:
		items, err := s.store.List(wire.NSData, fmt.Sprintf("f/%d/", uint64(r.ino)))
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			kvs = append(kvs, wire.KV{NS: wire.NSData, Key: it.Key, Delete: true})
		}
	}
	for _, uid := range s.reg.Users() {
		kvs = append(kvs, wire.KV{NS: wire.NSSplit,
			Key: meta.SplitKey(r.ino, keys.UserPrincipal(uid).String()), Delete: true})
	}
	return kvs, nil
}

// Rename implements vfs.FS. Rows are moved between the parents' table
// views per variant. When the two parents have different owner or group —
// so the per-variant traveller sets differ — the rows must be recomputed,
// which requires the child's owner keys; otherwise the move is refused.
func (s *Session) Rename(oldPath, newPath string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("rename")()
	return pathErrNil("rename", oldPath, s.rename(oldPath, newPath))
}

func (s *Session) rename(oldPath, newPath string) error {
	opr, opm, oldBase, err := s.resolveParent(oldPath)
	if err != nil {
		return err
	}
	npr, npm, newBase, err := s.resolveParent(newPath)
	if err != nil {
		return err
	}
	if err := s.requireDirWriter(opm); err != nil {
		return err
	}
	samePar := opr.ino == npr.ino
	if !samePar {
		if err := s.requireDirWriter(npm); err != nil {
			return err
		}
	}

	srcTables, err := s.loadParentTables(opr, opm)
	if err != nil {
		return err
	}
	if _, err := srcTables[opr.variant].Lookup(oldBase); err != nil {
		if errors.Is(err, meta.ErrNoEntry) {
			return types.ErrNotExist
		}
		return err
	}
	dstTables := srcTables
	if !samePar {
		if dstTables, err = s.loadParentTables(npr, npm); err != nil {
			return err
		}
	}
	if _, err := dstTables[npr.variant].Lookup(newBase); err == nil {
		return types.ErrExist
	}

	sameDomain := samePar || (opm.Attr.Owner == npm.Attr.Owner && opm.Attr.Group == npm.Attr.Group)
	var grants []wire.KV
	if sameDomain {
		// Traveller sets match: rows move verbatim.
		for id, src := range srcTables {
			e, err := src.Lookup(oldBase)
			if err != nil {
				if errors.Is(err, meta.ErrNoEntry) {
					continue
				}
				return err
			}
			moved := *e
			moved.Name = newBase
			if err := src.Remove(oldBase); err != nil {
				return err
			}
			if err := dstTables[id].Insert(moved); err != nil {
				return err
			}
		}
	} else {
		// Different ownership domain: recompute rows, which needs the
		// child's full key set (its owner's variant).
		_, cm, err := s.resolve(oldPath)
		if err != nil {
			return err
		}
		if cm.Keys.MetaSeed.IsZero() || cm.Keys.MSK.IsZero() {
			return fmt.Errorf("%w: cross-domain rename requires ownership of %q", types.ErrPermission, oldPath)
		}
		for _, tbl := range srcTables {
			if err := tbl.Remove(oldBase); err != nil && !errors.Is(err, meta.ErrNoEntry) {
				return err
			}
		}
		if grants, err = layout.BuildRows(s.eng, npm, dstTables, newBase, cm); err != nil {
			return err
		}
	}

	kvs, err := s.writeParentTables(opr, opm, srcTables)
	if err != nil {
		return err
	}
	if !samePar {
		nkvs, err := s.writeParentTables(npr, npm, dstTables)
		if err != nil {
			return err
		}
		kvs = append(kvs, nkvs...)
	}
	kvs = append(kvs, grants...)
	return s.commit(kvs, opr.ino, npr.ino)
}
