package client

import (
	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// readAheadBytes is how much content of the entries after the one being
// read one read-ahead round trip fetches at most. The first read in a
// listed directory carries the batch, so the window trades that read's
// latency for the round trips of the reads after it.
const readAheadBytes = 64 << 10

// blockRun is the blocks of one file that a read-ahead batch fetches:
// the file's location, the metadata that holds its data keys, and the
// block numbers missing from the cache.
type blockRun struct {
	ino    types.Inode
	m      *meta.Metadata
	blocks []uint32
}

// missingBlocks returns the numbers of the blocks of a file with
// metadata m and manifest man that are not cached, and their content
// size in bytes.
func (s *Session) missingBlocks(ino types.Inode, m *meta.Metadata, man *meta.Manifest) ([]uint32, int64) {
	var out []uint32
	var size int64
	for i := uint32(0); i < man.NBlocks; i++ {
		if s.cache.Has(ckBlock + meta.BlockKey(ino, m.Attr.DataGen, i)) {
			continue
		}
		out = append(out, i)
		size += int64(min(uint64(man.BlockSize), man.Size-uint64(i)*uint64(man.BlockSize)))
	}
	return out, size
}

// readAhead is the file-data twin of statAhead. When r, named name, is
// an entry of the last listing and some of its blocks are not cached, one
// BatchGet fetches them together with the missing blocks of the entries
// that follow it in listing order, up to readAheadBytes of their content.
// Only entries whose metadata and manifest are already cached and whose
// variant can read the data (DEK and DVK present, read permission) are
// covered; split-point rows are skipped. Every block is verified under
// its own file's DEK/DVK and BlockAAD(ino, DataGen, i) before it enters
// the cache. r's own verified blocks are also returned, keyed by block
// number, so the read uses them even when a finite cache has already
// evicted them. A block that fails is not cached or returned, and a
// failed batch changes nothing, so readBlocks then fetches what r still
// misses and reports what it finds.
func (s *Session) readAhead(r ref, m *meta.Metadata, man *meta.Manifest, name string) map[uint32][]byte {
	if !s.cache.Enabled() {
		return nil
	}
	i, ok := s.listedAt(r, name)
	if !ok {
		return nil
	}
	own, _ := s.missingBlocks(r.ino, m, man)
	if len(own) == 0 {
		return nil
	}
	// The window never takes more than half a finite cache. A window the
	// cache cannot hold evicts the blocks it prefetched before they are
	// read, and each later read fetches them again: share-wan with the
	// reader's cache at 32 KiB moved ~1.8x the bytes per op at about half
	// the op rate without this cap (2-core Xeon, simulated WAN).
	window := int64(readAheadBytes)
	if b := s.cache.Budget(); b > 0 {
		window = min(window, b/2)
	}
	// r's own run goes first, so on a finite cache the blocks of the
	// entries read next are the most recently cached.
	runs := []blockRun{{ino: r.ino, m: m, blocks: own}}
	for _, e := range s.listing.rows[i+1:] {
		if e.Split {
			continue
		}
		mv, ok := s.cache.Peek(ckMeta + meta.MetaKey(e.Inode, e.Variant))
		if !ok {
			continue
		}
		em := mv.(*meta.Metadata)
		if em.Attr.Kind != types.KindFile || !s.triplet(em.Attr).CanRead() ||
			em.Keys.DEK.IsZero() || em.Keys.DVK.IsZero() {
			continue
		}
		fv, ok := s.cache.Peek(ckManifest + meta.ManifestKey(e.Inode))
		if !ok {
			continue
		}
		blocks, size := s.missingBlocks(e.Inode, em, fv.(*meta.Manifest))
		if len(blocks) == 0 {
			continue
		}
		if size > window {
			break
		}
		window -= size
		runs = append(runs, blockRun{ino: e.Inode, m: em, blocks: blocks})
	}

	var keys []wire.KV
	for _, run := range runs {
		for _, b := range run.blocks {
			keys = append(keys, wire.KV{NS: wire.NSData, Key: meta.BlockKey(run.ino, run.m.Attr.DataGen, b)})
		}
	}
	items, err := s.store.BatchGet(keys)
	if err != nil {
		return nil
	}
	blobs := make(map[string][]byte, len(items))
	for _, it := range items {
		blobs[it.Key] = it.Val
	}
	// Whatever key the SSP returns a blob under, it is opened with the
	// AAD of the block it is asked to be, so a blob moved between files
	// or blocks fails verification. The files are independent, so they
	// open across the worker pool under one wall-clock stopwatch.
	opened := make([][][]byte, len(runs))
	stop := s.crypto("open-block")
	runParallel(len(runs), func(j int) {
		run := runs[j]
		opened[j] = make([][]byte, len(run.blocks))
		for k, b := range run.blocks {
			blob, ok := blobs[meta.BlockKey(run.ino, run.m.Attr.DataGen, b)]
			if !ok {
				continue
			}
			pt, err := meta.OpenVerified(run.m.Keys.DEK, run.m.Keys.DVK, meta.BlockAAD(run.ino, run.m.Attr.DataGen, b), blob)
			if err == nil {
				opened[j][k] = pt
			}
		}
	})
	stop()
	var n int64
	for j, run := range runs {
		for k, b := range run.blocks {
			if pt := opened[j][k]; pt != nil {
				s.cache.Put(ckBlock+meta.BlockKey(run.ino, run.m.Attr.DataGen, b), pt, int64(len(pt)))
				n++
			}
		}
	}
	s.metrics.Counter("client.readahead.batches").Inc()
	s.metrics.Counter("client.readahead.blocks").Add(n)
	have := make(map[uint32][]byte, len(own))
	for k, b := range own {
		if pt := opened[0][k]; pt != nil {
			have[b] = pt
		}
	}
	return have
}
