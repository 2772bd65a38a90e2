package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand" //sharoes-vet:allow rawrand benchmark inputs must be reproducible from the seed; no key or nonce is drawn from it
	"slices"
	"sync"
	"time"

	"github.com/sharoes/sharoes/internal/types"
	"github.com/sharoes/sharoes/internal/vfs"
	"github.com/sharoes/sharoes/internal/workload"
)

// sample is one timed operation.
type sample struct {
	class string
	ns    int64
	end   time.Time
}

// driver issues one session's operations in a closed loop, timing each
// from outside the program and checking its result against the
// workload's model.
type driver struct {
	fs        vfs.FS
	samples   []sample
	attempted int
	failed    int
	errs      []string

	// Traced runs only: sc names the op class for the FS tap, and cache
	// reads the session's cache counters to charge misses to reads.
	sc         *sessCtx
	cache      func() (hits, misses int64)
	readMisses int64
}

// do times one operation of class.
func (d *driver) do(class string, call func()) {
	var misses int64
	if d.sc != nil {
		d.sc.class = class
		_, misses = d.cache()
	}
	start := time.Now()
	call()
	end := time.Now()
	d.samples = append(d.samples, sample{class: class, ns: int64(end.Sub(start)), end: end})
	d.attempted++
	if d.sc != nil && class == "read" {
		_, after := d.cache()
		d.readMisses += after - misses
	}
}

// fail records the last operation as failed or wrong.
func (d *driver) fail(format string, args ...any) {
	d.failed++
	if len(d.errs) < 5 {
		d.errs = append(d.errs, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload, ready to measure.
type instance interface {
	stack() *stack
	drivers() []*driver
	// measure runs the closed loops until the deadline.
	measure(until time.Time)
	// finish lands all writes and runs the end-of-run oracles, counting
	// a wrong result as a failure on a driver.
	finish() error
	// userBytes is the live user content the model holds.
	userBytes() int64
}

// workloadDef names a workload and how to set it up.
type workloadDef struct {
	name  string
	sizes string
	start func(p *principals, seed int64, tr *tracer) (instance, error)
}

var workloads = []workloadDef{
	// Metadata only, every op blocking on its store call over the WAN
	// link: the control for write-behind, shards, data crypto and cache
	// pressure.
	{
		name: "createlist-wan",
		sizes: fmt.Sprintf("rounds of %d empty files in %d dirs, Refresh, ls -lR; 1 session, 1 SSP, sync writes, unlimited cache, Scheme-2",
			clFiles, clDirs),
		start: startCreateList,
	},
	// Reads beside writes through write-behind lanes over two shards
	// (R=2, W=1, hedged reads), working set five times the cache.
	{
		name: "postmark-wan",
		sizes: fmt.Sprintf("%d-file pool, %d-%d B, %d subdirs, uniform read/append/create/delete; 2 sessions, cache %d B each",
			pmFiles, pmMin, pmMax, pmSubdirs, pmCache),
		start: startPostmark,
	},
	// The owner writes, revokes and regrants while a group member reads,
	// both over the WAN link: group CAPs and revocation beside reads.
	{
		name: "share-wan",
		sizes: fmt.Sprintf("%d dirs 0750 x %d files 0640, %d-%d B; alice %d mutations/round on one half, bob reads the other; write-behind, unlimited cache",
			shDirs, shFilesPerDir, shMin, shMax, shMutations),
		start: startShareWAN,
	},
}

func equalSets(got, want []string) bool {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

func payload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// --- createlist-wan -------------------------------------------------------

// Paper §V-A Create-and-List: 500 empty files in 25 directories, then a
// cold ls -lR.
const (
	clFiles = 500
	clDirs  = 25
)

type createList struct {
	st   *stack
	d    *driver
	seed int64
	ends []time.Time // when each measured round ended
}

func startCreateList(p *principals, seed int64, tr *tracer) (instance, error) {
	st, err := build(p, stackConfig{profile: workload.CalibratedProfile, shards: 1},
		[]sessionSpec{{user: p.alice, cache: -1}}, tr)
	if err != nil {
		return nil, err
	}
	return &createList{st: st, d: newDriver(st, 0), seed: seed}, nil
}

func newDriver(st *stack, i int) *driver {
	d := &driver{fs: st.fs[i]}
	if ft, ok := st.fs[i].(*fsTap); ok {
		d.sc, d.cache = ft.sc, st.sessions[i].CacheStats
	}
	return d
}

func (c *createList) stack() *stack      { return c.st }
func (c *createList) drivers() []*driver { return []*driver{c.d} }
func (c *createList) userBytes() int64   { return 0 }

// measure builds fresh trees, one per round, and finishes the round in
// progress at the deadline so every round is listed.
func (c *createList) measure(until time.Time) {
	for r := 0; time.Now().Before(until); r++ {
		c.round(r)
		c.ends = append(c.ends, time.Now())
	}
}

func (c *createList) roundEnds() []time.Time { return c.ends }

func (c *createList) round(r int) {
	rng := rand.New(rand.NewSource(c.seed*7919 + int64(r)))
	d, fs := c.d, c.d.fs
	root := fmt.Sprintf("/c%04d", r)
	var err error
	if d.do("mkdir", func() { err = fs.Mkdir(root, 0o755) }); err != nil {
		d.fail("mkdir %s: %v", root, err)
	}
	dirs := make([]string, clDirs)
	files := make(map[string][]string, clDirs)
	for i := range dirs {
		dirs[i] = fmt.Sprintf("d%02d", i)
		p := root + "/" + dirs[i]
		if d.do("mkdir", func() { err = fs.Mkdir(p, 0o755) }); err != nil {
			d.fail("mkdir %s: %v", p, err)
		}
	}
	// Each directory gets the same number of files, in a seeded order
	// under seeded names.
	for _, i := range rng.Perm(clFiles) {
		dir := dirs[i%clDirs]
		name := fmt.Sprintf("f%03d-%06x", i, rng.Intn(1<<24))
		p := root + "/" + dir + "/" + name
		if d.do("create", func() { err = fs.Create(p, 0o644) }); err != nil {
			d.fail("create %s: %v", p, err)
		}
		files[dir] = append(files[dir], name)
	}

	// ls -lR, cold: creation and listing are separate program runs.
	fs.Refresh()
	var info vfs.Info
	if d.do("stat", func() { info, err = fs.Stat(root) }); err != nil || !info.IsDir() {
		d.fail("stat %s: %v", root, err)
	}
	var names []string
	if d.do("readdir", func() { names, err = fs.ReadDir(root) }); err != nil || !equalSets(names, dirs) {
		d.fail("readdir %s: %v (%d entries, want %d)", root, err, len(names), len(dirs))
	}
	for _, dn := range names {
		dp := root + "/" + dn
		if d.do("stat", func() { info, err = fs.Stat(dp) }); err != nil || !info.IsDir() {
			d.fail("stat %s: %v", dp, err)
		}
		var entries []string
		if d.do("readdir", func() { entries, err = fs.ReadDir(dp) }); err != nil || !equalSets(entries, files[dn]) {
			d.fail("readdir %s: %v (%d entries, want %d)", dp, err, len(entries), len(files[dn]))
		}
		for _, fn := range entries {
			fp := dp + "/" + fn
			if d.do("stat", func() { info, err = fs.Stat(fp) }); err != nil ||
				info.IsDir() || info.Size != 0 || info.Perm != 0o644 || info.Owner != "alice" {
				d.fail("stat %s: %v (%+v)", fp, err, info)
			}
		}
	}
}

func (c *createList) finish() error { return c.st.verify() }

// --- postmark-wan ---------------------------------------------------------

// Paper §V-B Postmark: a 500-file pool of 500 B - 9.77 KB files in 25
// subdirectories. Each of the two sessions owns its own subdirectories
// (sessions of one user share no cache, so they must not write the same
// directory table) and has a cache of a fifth of its share of the data
// set, the fig 10 split.
const (
	pmFiles   = 500
	pmSubdirs = 25
	pmMin     = 500
	pmMax     = 10000
	pmAppend  = 500
	pmCache   = pmFiles / 2 * (pmMin + pmMax) / 2 / 5
)

type pmSession struct {
	d     *driver
	id    int
	rng   *rand.Rand
	dirs  []string
	live  []string
	model map[string][]byte
	next  int
	kinds []int // transaction kinds left in the current block
}

type postmark struct {
	st *stack
	ss []*pmSession
}

func startPostmark(p *principals, seed int64, tr *tracer) (instance, error) {
	st, err := build(p, stackConfig{profile: workload.CalibratedProfile, shards: 2, writeBehind: true},
		[]sessionSpec{{user: p.alice, cache: pmCache}, {user: p.alice, cache: pmCache}}, tr)
	if err != nil {
		return nil, err
	}
	pm := &postmark{st: st}
	for i := range st.fs {
		s := &pmSession{d: newDriver(st, i), id: i, model: map[string][]byte{},
			rng: rand.New(rand.NewSource(seed*7919 + int64(i)))}
		for j := i; j < pmSubdirs; j += len(st.fs) {
			s.dirs = append(s.dirs, fmt.Sprintf("/pm/s%02d", j))
		}
		pm.ss = append(pm.ss, s)
	}
	// One session makes every directory: /pm's table must have a single
	// writer. The others then drop what they cached before it existed.
	if err := pm.mkdirs(); err != nil {
		return nil, errors.Join(err, st.close())
	}
	// Both sessions fill their share of the pool at once.
	errs := make([]error, len(pm.ss))
	var wg sync.WaitGroup
	for i, s := range pm.ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.fill(pmFiles / len(pm.ss))
		}()
	}
	wg.Wait()
	if err := errors.Join(append(errs, st.barrier())...); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return pm, nil
}

func (s *pmSession) size() int { return pmMin + s.rng.Intn(pmMax-pmMin+1) }

func (s *pmSession) newPath() string {
	p := fmt.Sprintf("%s/p%d-%05d", s.dirs[s.next%len(s.dirs)], s.id, s.next)
	s.next++
	return p
}

func (pm *postmark) mkdirs() error {
	fs := pm.st.fs[0]
	if err := fs.Mkdir("/pm", 0o755); err != nil {
		return err
	}
	for j := 0; j < pmSubdirs; j++ {
		if err := fs.Mkdir(fmt.Sprintf("/pm/s%02d", j), 0o755); err != nil {
			return err
		}
	}
	if err := pm.st.barrier(); err != nil {
		return err
	}
	for _, s := range pm.ss[1:] {
		s.d.fs.Refresh()
	}
	return nil
}

func (s *pmSession) fill(n int) error {
	for i := 0; i < n; i++ {
		p, data := s.newPath(), payload(s.rng, s.size())
		if err := s.d.fs.WriteFile(p, data, 0o644); err != nil {
			return err
		}
		s.live = append(s.live, p)
		s.model[p] = data
	}
	return nil
}

func (pm *postmark) stack() *stack { return pm.st }

func (pm *postmark) drivers() []*driver {
	out := make([]*driver, len(pm.ss))
	for i, s := range pm.ss {
		out[i] = s.d
	}
	return out
}

func (pm *postmark) userBytes() int64 {
	var n int64
	for _, s := range pm.ss {
		for _, data := range s.model {
			n += int64(len(data))
		}
	}
	return n
}

func (pm *postmark) measure(until time.Time) {
	var wg sync.WaitGroup
	for _, s := range pm.ss {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				s.tx()
			}
		}()
	}
	wg.Wait()
}

// tx is one Postmark transaction. The four kinds come in shuffled blocks
// of one each: uniform, as in Postmark, but with the mix exact in every
// run, so a seed changes which files are touched and not how many ops
// of each kind a run does.
func (s *pmSession) tx() {
	if len(s.kinds) == 0 {
		s.kinds = s.rng.Perm(4)
	}
	kind := s.kinds[0]
	s.kinds = s.kinds[1:]
	d, fs := s.d, s.d.fs
	var err error
	switch kind {
	case 0:
		p := s.live[s.rng.Intn(len(s.live))]
		var got []byte
		if d.do("read", func() { got, err = fs.ReadFile(p) }); err != nil || !bytes.Equal(got, s.model[p]) {
			d.fail("read %s: %v (%d bytes, want %d)", p, err, len(got), len(s.model[p]))
		}
	case 1:
		p := s.live[s.rng.Intn(len(s.live))]
		data := payload(s.rng, pmAppend)
		if d.do("write", func() { err = fs.Append(p, data) }); err != nil {
			d.fail("append %s: %v", p, err)
			return
		}
		s.model[p] = append(s.model[p], data...)
	case 2:
		p, data := s.newPath(), payload(s.rng, s.size())
		if d.do("create", func() { err = fs.WriteFile(p, data, 0o644) }); err != nil {
			d.fail("create %s: %v", p, err)
			return
		}
		s.live = append(s.live, p)
		s.model[p] = data
	default:
		if len(s.live) <= 1 {
			return
		}
		i := s.rng.Intn(len(s.live))
		p := s.live[i]
		if d.do("delete", func() { err = fs.Remove(p) }); err != nil {
			d.fail("delete %s: %v", p, err)
			return
		}
		s.live[i] = s.live[len(s.live)-1]
		s.live = s.live[:len(s.live)-1]
		delete(s.model, p)
	}
}

// finish reads every live file back, cold, and checks it against the
// model.
func (pm *postmark) finish() error {
	if err := pm.st.barrier(); err != nil {
		return err
	}
	for _, s := range pm.ss {
		s.d.fs.Refresh()
		for _, p := range s.live {
			got, err := s.d.fs.ReadFile(p)
			if err != nil || !bytes.Equal(got, s.model[p]) {
				s.d.fail("read-back %s: %v (%d bytes, want %d)", p, err, len(got), len(s.model[p]))
			}
		}
	}
	return pm.st.verify()
}

// --- share-wan ------------------------------------------------------------

// Cross-user sharing over the calibrated WAN link: alice owns
// group-shared files in 0750 directories; bob, a member of eng, reads
// them. The directories split in two halves.
// In each round alice mutates one half — rewrite, append (up to twice the
// largest size), revoke (0640 -> 0600) or regrant, replace (delete +
// create) — and lands her
// writes, while bob refreshes and reads the other half, which nobody
// writes during the round; then the halves swap.
const (
	shDirs        = 4
	shFilesPerDir = 16
	shMin         = 1024
	shMax         = 8192
	shMutations   = 16 // per round, in the mix shMix
	shGranted     = types.Perm(0o640)
	shRevoked     = types.Perm(0o600)
)

// The kinds of alice's mutations. Each round does shMix in a shuffled
// order: the mix is exact in every run, so a seed changes which files are
// touched and in what order, not how many mutations of each kind a run
// does.
const (
	shRewrite = iota
	shAppend
	shChmod   // revoke (0640 -> 0600) or regrant
	shReplace // delete and create
)

var shMix = [shMutations]int{
	shRewrite, shRewrite, shRewrite, shRewrite, shRewrite,
	shAppend, shAppend, shAppend, shAppend,
	shChmod, shChmod, shChmod, shChmod,
	shReplace, shReplace, shReplace,
}

type shFile struct {
	data []byte
	perm types.Perm
}

// shDir is one directory's model. Only the side whose half it is in
// touches it during a round.
type shDir struct {
	path  string
	names []string
	files map[string]*shFile
}

type shareWAN struct {
	st         *stack
	alice, bob *driver
	rng        *rand.Rand
	sizes      evenDraw // file sizes
	appends    evenDraw // bytes per append
	dirs       []*shDir
	next       int
}

// evenDraw draws integers from [lo, hi] along a golden-ratio sequence
// from a seeded start. The order is the seed's, but every seed gets the
// same even spread of values, so a run's mean file size, and with it its
// bytes and time per operation, does not depend on the seed.
type evenDraw struct {
	lo, hi int
	at     float64
}

func (e *evenDraw) next() int {
	e.at = math.Mod(e.at+0.6180339887498949, 1)
	return e.lo + int(e.at*float64(e.hi-e.lo+1))
}

func startShareWAN(p *principals, seed int64, tr *tracer) (instance, error) {
	st, err := build(p, stackConfig{profile: workload.CalibratedProfile, shards: 1, writeBehind: true},
		[]sessionSpec{{user: p.alice, cache: -1}, {user: p.bob, cache: -1}}, tr)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	sh := &shareWAN{st: st, alice: newDriver(st, 0), bob: newDriver(st, 1), rng: rng,
		sizes:   evenDraw{lo: shMin, hi: shMax, at: rng.Float64()},
		appends: evenDraw{lo: 256, hi: 2048, at: rng.Float64()}}
	if err := sh.fill(); err != nil {
		return nil, errors.Join(err, st.close())
	}
	return sh, nil
}

func (sh *shareWAN) newName() string {
	sh.next++
	return fmt.Sprintf("f%05d", sh.next)
}

func (sh *shareWAN) size() int { return sh.sizes.next() }

func (sh *shareWAN) fill() error {
	fs := sh.alice.fs
	for i := 0; i < shDirs; i++ {
		d := &shDir{path: fmt.Sprintf("/g%d", i), files: map[string]*shFile{}}
		if err := fs.Mkdir(d.path, 0o750); err != nil {
			return err
		}
		for j := 0; j < shFilesPerDir; j++ {
			name, data := sh.newName(), payload(sh.rng, sh.size())
			if err := fs.WriteFile(d.path+"/"+name, data, shGranted); err != nil {
				return err
			}
			d.names = append(d.names, name)
			d.files[name] = &shFile{data: data, perm: shGranted}
		}
		sh.dirs = append(sh.dirs, d)
	}
	return sh.st.barrier()
}

func (sh *shareWAN) stack() *stack      { return sh.st }
func (sh *shareWAN) drivers() []*driver { return []*driver{sh.alice, sh.bob} }

func (sh *shareWAN) userBytes() int64 {
	var n int64
	for _, d := range sh.dirs {
		for _, f := range d.files {
			n += int64(len(f.data))
		}
	}
	return n
}

func (sh *shareWAN) half(h int) []*shDir {
	var out []*shDir
	for i, d := range sh.dirs {
		if i%2 == h {
			out = append(out, d)
		}
	}
	return out
}

// measure runs rounds until the deadline, finishing the round in
// progress.
func (sh *shareWAN) measure(until time.Time) {
	for r := 0; time.Now().Before(until); r++ {
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			sh.mutate(sh.half(r % 2))
		}()
		go func() {
			defer wg.Done()
			sh.read(sh.half(1 - r%2))
		}()
		wg.Wait()
	}
}

func (sh *shareWAN) mutate(dirs []*shDir) {
	d, fs := sh.alice, sh.alice.fs
	var err error
	kinds := shMix
	sh.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	for _, kind := range kinds {
		dir := dirs[sh.rng.Intn(len(dirs))]
		j := sh.rng.Intn(len(dir.names))
		name := dir.names[j]
		p, f := dir.path+"/"+name, dir.files[name]
		if kind == shAppend && len(f.data) >= 2*shMax {
			kind = shRewrite // a grown file is rewritten instead, so sizes stay stationary
		}
		switch kind {
		case shRewrite:
			data := payload(sh.rng, sh.size())
			if d.do("write", func() { err = fs.WriteFile(p, data, f.perm) }); err != nil {
				d.fail("rewrite %s: %v", p, err)
				continue
			}
			f.data = data
		case shAppend:
			data := payload(sh.rng, sh.appends.next())
			if d.do("write", func() { err = fs.Append(p, data) }); err != nil {
				d.fail("append %s: %v", p, err)
				continue
			}
			f.data = append(f.data, data...)
		case shChmod:
			perm := shRevoked
			if f.perm == shRevoked {
				perm = shGranted
			}
			if d.do("chmod", func() { err = fs.Chmod(p, perm) }); err != nil {
				d.fail("chmod %s %o: %v", p, perm, err)
				continue
			}
			f.perm = perm
		case shReplace:
			if d.do("delete", func() { err = fs.Remove(p) }); err != nil {
				d.fail("delete %s: %v", p, err)
				continue
			}
			delete(dir.files, name)
			name = sh.newName()
			dir.names[j] = name
			np, data := dir.path+"/"+name, payload(sh.rng, sh.size())
			if d.do("create", func() { err = fs.WriteFile(np, data, shGranted) }); err != nil {
				d.fail("create %s: %v", np, err)
				dir.names = append(dir.names[:j], dir.names[j+1:]...)
				continue
			}
			dir.files[name] = &shFile{data: data, perm: shGranted}
		}
	}
	// Land the round's writes at the SSP before bob's next refresh
	// (close-to-open publication).
	if err := sh.st.barrier(); err != nil {
		d.fail("barrier: %v", err)
	}
}

// read is bob's round: refresh, then list, stat and read every file of
// the half alice left alone. A granted file must read as alice's last
// write; a revoked one must be refused with ErrPermission.
func (sh *shareWAN) read(dirs []*shDir) {
	d, fs := sh.bob, sh.bob.fs
	fs.Refresh()
	var err error
	for _, dir := range dirs {
		var names []string
		if d.do("readdir", func() { names, err = fs.ReadDir(dir.path) }); err != nil || !equalSets(names, dir.names) {
			d.fail("readdir %s: %v (%d entries, want %d)", dir.path, err, len(names), len(dir.names))
			continue
		}
		for _, name := range names {
			p, f := dir.path+"/"+name, dir.files[name]
			var info vfs.Info
			d.do("stat", func() { info, err = fs.Stat(p) })
			if err != nil || info.Perm != f.perm || info.Owner != "alice" || info.Group != "eng" {
				d.fail("stat %s: %v (%+v, want perm %o)", p, err, info, f.perm)
			}
			var got []byte
			d.do("read", func() { got, err = fs.ReadFile(p) })
			switch {
			case f.perm == shRevoked && !errors.Is(err, types.ErrPermission):
				d.fail("read of revoked %s: got %v, want ErrPermission", p, err)
			case f.perm == shGranted && (err != nil || !bytes.Equal(got, f.data)):
				d.fail("read %s: %v (%d bytes, want %d)", p, err, len(got), len(f.data))
			}
		}
	}
}

func (sh *shareWAN) finish() error {
	if err := sh.st.barrier(); err != nil {
		return err
	}
	return sh.st.verify()
}
