package client

import (
	"errors"
	"fmt"
	"time"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/sharocrypto"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// fetchManifest retrieves and opens a file's manifest, via the cache.
func (s *Session) fetchManifest(r ref, m *meta.Metadata) (*meta.Manifest, error) {
	if m.Keys.DEK.IsZero() || m.Keys.DVK.IsZero() {
		return nil, types.ErrPermission
	}
	key := ckManifest + meta.ManifestKey(r.ino)
	if v, ok := s.cache.Get(key); ok {
		return v.(*meta.Manifest), nil
	}
	blob, err := s.store.Get(wire.NSData, meta.ManifestKey(r.ino))
	if errors.Is(err, wire.ErrNotFound) {
		return nil, fmt.Errorf("%w: manifest missing", types.ErrTampered)
	}
	if err != nil {
		return nil, err
	}
	stop := s.crypto("open-manifest")
	defer stop()
	return s.openManifest(r, m, blob)
}

// openManifest verifies, decodes and caches a fetched manifest blob. It
// takes no stopwatch, so statAhead can run it on several goroutines;
// callers charge CRYPTO around it.
func (s *Session) openManifest(r ref, m *meta.Metadata, blob []byte) (*meta.Manifest, error) {
	pt, err := meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, meta.ManifestAAD(r.ino, m.Attr.DataGen), blob)
	var man *meta.Manifest
	if err == nil {
		man, err = meta.DecodeManifest(pt)
	}
	if err != nil {
		return nil, err
	}
	s.cache.Put(ckManifest+meta.ManifestKey(r.ino), man, int64(len(blob)))
	return man, nil
}

// sealFileData seals a file's full content as blocks plus manifest,
// returning the KVs to store and priming the cache with the plaintext.
// Larger files are divided into blocks, each encrypted separately, so
// later updates need not re-encrypt the whole file (paper §II-B).
func (s *Session) sealFileData(m *meta.Metadata, data []byte, mtime int64) ([]wire.KV, error) {
	if m.Keys.DEK.IsZero() || m.Keys.DSK.IsZero() {
		return nil, types.ErrPermission
	}
	ino, gen := m.Attr.Inode, m.Attr.DataGen
	bs := int(s.blockSize)
	nBlocks := (len(data) + bs - 1) / bs

	kvs := make([]wire.KV, 0, nBlocks+1)
	stop := s.crypto("seal-data")
	for i := 0; i < nBlocks; i++ {
		lo, hi := i*bs, (i+1)*bs
		if hi > len(data) {
			hi = len(data)
		}
		aad := meta.BlockAAD(ino, gen, uint32(i))
		sealed := meta.SealSigned(m.Keys.DEK, m.Keys.DSK, aad, data[lo:hi])
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.BlockKey(ino, gen, uint32(i)), Val: sealed})
		blk := make([]byte, hi-lo)
		copy(blk, data[lo:hi])
		s.cache.Put(ckBlock+meta.BlockKey(ino, gen, uint32(i)), blk, int64(hi-lo))
	}
	man := &meta.Manifest{Size: uint64(len(data)), BlockSize: s.blockSize, NBlocks: uint32(nBlocks), MTime: mtime}
	sealedMan := meta.SealSigned(m.Keys.DEK, m.Keys.DSK, meta.ManifestAAD(ino, gen), man.Encode())
	stop()
	kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.ManifestKey(ino), Val: sealedMan})
	s.cache.Put(ckManifest+meta.ManifestKey(ino), man, int64(len(sealedMan)))
	return kvs, nil
}

// readBlocks fetches, verifies and decrypts the blocks [from, to) of a
// file, taking them from have (blocks already opened by the caller, keyed
// by number; may be nil), then the cache, and batching all misses into
// one round trip.
func (s *Session) readBlocks(r ref, m *meta.Metadata, man *meta.Manifest, from, to uint32, have map[uint32][]byte) ([][]byte, error) {
	out := make([][]byte, to-from)
	var missing []wire.KV
	missIdx := make(map[string]int)
	for i := from; i < to; i++ {
		if b, ok := have[i]; ok {
			out[i-from] = b
			continue
		}
		key := meta.BlockKey(r.ino, m.Attr.DataGen, i)
		if v, ok := s.cache.Get(ckBlock + key); ok {
			out[i-from] = v.([]byte)
			continue
		}
		missing = append(missing, wire.KV{NS: wire.NSData, Key: key})
		missIdx[key] = int(i - from)
	}
	if len(missing) == 0 {
		return out, nil
	}
	items, err := s.store.BatchGet(missing)
	if err != nil {
		return nil, err
	}
	if len(items) != len(missing) {
		return nil, fmt.Errorf("%w: %d of %d blocks missing", types.ErrTampered, len(missing)-len(items), len(missing))
	}
	stop := s.crypto("open-block")
	defer stop()
	for _, it := range items {
		idx, ok := missIdx[it.Key]
		if !ok {
			return nil, fmt.Errorf("%w: unexpected block %q", types.ErrTampered, it.Key)
		}
		blockNo := from + uint32(idx)
		aad := meta.BlockAAD(r.ino, m.Attr.DataGen, blockNo)
		pt, err := meta.OpenVerified(m.Keys.DEK, m.Keys.DVK, aad, it.Val)
		if err != nil {
			return nil, err
		}
		out[idx] = pt
		s.cache.Put(ckBlock+it.Key, pt, int64(len(pt)))
	}
	return out, nil
}

// ReadFile implements vfs.FS: obtain the encrypted data blocks, verify the
// writer's signatures and decrypt (paper Figure 8, read row). Metadata and
// manifest are fetched in one batched round trip.
func (s *Session) ReadFile(path string) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("read")()
	out, err := s.readFileLocked(path)
	if err != nil {
		return nil, pathErr("read", path, err)
	}
	return out, nil
}

// WriteFile implements vfs.FS: create or replace a file's content. All
// encryption happens here, modelling the paper's cache-writes-locally,
// encrypt-and-send-on-close behaviour (Figure 8, write/close rows).
func (s *Session) WriteFile(path string, data []byte, perm types.Perm) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("write")()
	return pathErrNil("write", path, s.writeFile(path, data, perm))
}

func (s *Session) writeFile(path string, data []byte, perm types.Perm) error {
	r, m, err := s.resolve(path)
	if errors.Is(err, types.ErrNotExist) {
		_, err := s.createObject(path, perm, types.KindFile, data)
		return err
	}
	if err != nil {
		return err
	}
	return s.overwrite(r, m, data)
}

// overwrite replaces an existing file's content in place.
func (s *Session) overwrite(r ref, m *meta.Metadata, data []byte) error {
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	if !s.triplet(m.Attr).CanWrite() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	// Fetch the old manifest to drop now-stale trailing blocks.
	oldMan, err := s.fetchManifest(r, m)
	if err != nil {
		return err
	}
	updated := *m
	isOwner := !m.Keys.MetaSeed.IsZero() && !m.Keys.MSK.IsZero()
	var kvs []wire.KV

	if m.Attr.Flags&meta.FlagRekeyPending != 0 && isOwner {
		// Lazy revocation (paper §IV-A1): the deferred re-keying happens
		// now, on the owner's first write after the chmod. The old
		// content is being replaced, so rotation is nearly free: fresh
		// keys, next generation, drop the old blobs.
		rkvs, err := s.rotateForWrite(r, &updated, oldMan)
		if err != nil {
			return err
		}
		kvs = append(kvs, rkvs...)
		oldMan = &meta.Manifest{} // old generation fully dropped
	}

	dkvs, err := s.sealFileData(&updated, data, time.Now().UnixNano())
	if err != nil {
		return err
	}
	kvs = append(kvs, dkvs...)
	newBlocks := uint32((len(data) + int(s.blockSize) - 1) / int(s.blockSize))
	for i := newBlocks; i < oldMan.NBlocks; i++ {
		key := meta.BlockKey(r.ino, updated.Attr.DataGen, i)
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: key, Delete: true})
		s.cache.Delete(ckBlock + key)
	}
	// Owners also refresh the metadata copies so stat stays fresh for
	// users without read access.
	if isOwner {
		updated.Attr.Size = uint64(len(data))
		updated.Attr.MTime = time.Now().UnixNano()
		kvs = append(kvs, s.sealMetaVariants(&updated)...)
	}
	return s.commit(kvs, r.ino)
}

// Append implements vfs.FS: extend a file, re-encrypting only the final
// (partial) block and the new tail — the update-efficiency argument for
// block-level encryption in §II-B.
func (s *Session) Append(path string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.beginOp("append")()
	return pathErrNil("append", path, s.appendFile(path, data))
}

func (s *Session) appendFile(path string, data []byte) error {
	r, m, err := s.resolve(path)
	if err != nil {
		return err
	}
	if m.Attr.Kind != types.KindFile {
		return types.ErrIsDir
	}
	t := s.triplet(m.Attr)
	if !t.CanWrite() || m.Keys.DSK.IsZero() {
		return types.ErrPermission
	}
	man, err := s.fetchManifest(r, m)
	if err != nil {
		return err
	}
	bs := uint64(s.blockSize)
	ino, gen := r.ino, m.Attr.DataGen

	// Reassemble the tail: the final partial block, if any, plus the new
	// data. Full blocks before it are untouched.
	firstDirty := uint32(man.Size / bs)
	tailOff := uint64(firstDirty) * bs
	var tail []byte
	if man.Size > tailOff {
		blocks, err := s.readBlocks(r, m, man, firstDirty, firstDirty+1, nil)
		if err != nil {
			return err
		}
		tail = append(tail, blocks[0]...)
	}
	tail = append(tail, data...)

	newSize := man.Size + uint64(len(data))
	kvs := make([]wire.KV, 0, len(tail)/int(bs)+2)
	stop := s.crypto("seal-data")
	for i := 0; i < len(tail); i += int(bs) {
		hi := i + int(bs)
		if hi > len(tail) {
			hi = len(tail)
		}
		blockNo := firstDirty + uint32(i/int(bs))
		aad := meta.BlockAAD(ino, gen, blockNo)
		sealed := meta.SealSigned(m.Keys.DEK, m.Keys.DSK, aad, tail[i:hi])
		key := meta.BlockKey(ino, gen, blockNo)
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: key, Val: sealed})
		blk := make([]byte, hi-i)
		copy(blk, tail[i:hi])
		s.cache.Put(ckBlock+key, blk, int64(hi-i))
	}
	newMan := &meta.Manifest{
		Size:      newSize,
		BlockSize: s.blockSize,
		NBlocks:   uint32((newSize + bs - 1) / bs),
		MTime:     time.Now().UnixNano(),
	}
	sealedMan := meta.SealSigned(m.Keys.DEK, m.Keys.DSK, meta.ManifestAAD(ino, gen), newMan.Encode())
	stop()
	kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.ManifestKey(ino), Val: sealedMan})
	s.cache.Put(ckManifest+meta.ManifestKey(ino), newMan, int64(len(sealedMan)))
	return s.commit(kvs, ino)
}

// rotateForWrite rotates a file's data keys in place on m without
// re-encrypting the outgoing content (the caller is about to replace it),
// and returns deletes for the old generation's blobs.
func (s *Session) rotateForWrite(r ref, m *meta.Metadata, oldMan *meta.Manifest) ([]wire.KV, error) {
	oldGen := m.Attr.DataGen
	stop := s.crypto("rotate-data-keys")
	dsk, dvk := sharocrypto.NewSigningPair()
	m.Keys.DEK = sharocrypto.NewSymKey()
	m.Keys.DSK, m.Keys.DVK = dsk, dvk
	m.Attr.DataGen++
	m.Attr.Flags &^= meta.FlagRekeyPending
	stop()

	kvs := make([]wire.KV, 0, oldMan.NBlocks)
	for i := uint32(0); i < oldMan.NBlocks; i++ {
		kvs = append(kvs, wire.KV{NS: wire.NSData, Key: meta.BlockKey(r.ino, oldGen, i), Delete: true})
	}
	s.cache.DeletePrefix(ckBlock + meta.BlockPrefix(r.ino, oldGen))
	s.cache.Delete(ckManifest + meta.ManifestKey(r.ino))
	return kvs, nil
}
