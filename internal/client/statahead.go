package client

import (
	"sort"
	"sync/atomic"

	"github.com/sharoes/sharoes/internal/meta"
	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/wire"
)

// statAheadWindow is how many listed entries, from the one being stat-ed
// on, one stat-ahead round trip covers.
const statAheadWindow = 64

// listing is the directory this session listed last: its inode and the
// rows of the view ReadDir read the names from, sorted by name as the
// view keeps them. Each row carries the child's MEK/MVK, so the rows are
// all a Stat needs to open the siblings of the entry it was asked for.
type listing struct {
	dir  types.Inode
	rows []meta.DirEntry
}

// forgetListing drops the remembered listing if it is directory ino's:
// the session is rewriting or invalidating that directory's table, and
// the rows must not outlive the view they were read from.
func (s *Session) forgetListing(ino types.Inode) {
	if s.listing != nil && s.listing.dir == ino {
		s.listing = nil
	}
}

// statAhead is the stat-ahead of Lustre and the READDIRPLUS of NFS, done
// with the keys Sharoes already hands out in band. When r, named name, is
// an entry of the last listing and its metadata is not cached, one
// BatchGet fetches the metadata and manifest of r and of the uncached
// entries among the statAheadWindow-1 that follow it in listing order,
// and openStat verifies each before it enters the cache. Split-point
// rows are skipped: opening them takes the user's private key. A blob
// that fails verification is not cached, and a failed batch changes
// nothing, so statFetch then fetches r alone and reports what it finds.
func (s *Session) statAhead(r ref, name string) {
	l := s.listing
	if l == nil || !s.cache.Enabled() || s.cache.Has(ckMeta+meta.MetaKey(r.ino, r.variant)) {
		return
	}
	i := sort.Search(len(l.rows), func(i int) bool { return l.rows[i].Name >= name })
	if i == len(l.rows) || l.rows[i].Name != name || l.rows[i].Inode != r.ino ||
		l.rows[i].Variant != r.variant || l.rows[i].Split {
		return
	}
	var batch []ref
	var keys []wire.KV
	for _, e := range l.rows[i:min(i+statAheadWindow, len(l.rows))] {
		if e.Split || s.cache.Has(ckMeta+meta.MetaKey(e.Inode, e.Variant)) {
			continue
		}
		batch = append(batch, ref{ino: e.Inode, variant: e.Variant, mek: e.MEK, mvk: e.MVK})
		keys = append(keys,
			wire.KV{NS: wire.NSMeta, Key: meta.MetaKey(e.Inode, e.Variant)},
			wire.KV{NS: wire.NSData, Key: meta.ManifestKey(e.Inode)})
	}
	items, err := s.store.BatchGet(keys)
	if err != nil {
		return
	}
	// Metadata and manifest keys differ in prefix, so one map holds both;
	// whatever the SSP labels a blob, openStat checks it against the AAD
	// of the location it is opened for.
	blobs := make(map[string][]byte, len(items))
	for _, it := range items {
		blobs[it.Key] = it.Val
	}
	// The entries are independent, so their signature checks run across
	// the worker pool; one wall-clock stopwatch charges CRYPTO what the
	// caller waited, as in loadParentTables.
	var opened atomic.Int64
	stop := s.crypto("open-stat")
	runParallel(len(batch), func(i int) {
		br := batch[i]
		if _, _, err := s.openStat(br, blobs[meta.MetaKey(br.ino, br.variant)], blobs[meta.ManifestKey(br.ino)]); err == nil {
			opened.Add(1)
		}
	})
	stop()
	s.metrics.Counter("client.statahead.batches").Inc()
	s.metrics.Counter("client.statahead.entries").Add(opened.Load())
}
