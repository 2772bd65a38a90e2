package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/sharoes/sharoes/internal/netsim"
	"github.com/sharoes/sharoes/internal/shard"
	"github.com/sharoes/sharoes/internal/ssp"
	"github.com/sharoes/sharoes/internal/wire"
)

var (
	testPrincipalsOnce sync.Once
	testPrincipals     *principals
	testPrincipalsErr  error
)

func principalsForTest(t *testing.T) *principals {
	t.Helper()
	testPrincipalsOnce.Do(func() { testPrincipals, testPrincipalsErr = newPrincipals() })
	if testPrincipalsErr != nil {
		t.Fatal(testPrincipalsErr)
	}
	return testPrincipals
}

// TestTapsKeepOptionalInterfaces checks that a decorator offers exactly
// the optional read path of the store it wraps and forwards barriers and
// routes.
func TestTapsKeepOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	mem := ssp.NewMemStore()
	if _, ok := tapStore(tr, mem, layerStore, nil).(ssp.ViewStore); !ok {
		t.Error("tap over a MemStore lost ssp.ViewStore: the server would copy instead of borrowing")
	}
	wb := ssp.NewWriteBehind(mem, ssp.WriteBehindOptions{})
	defer wb.Close()
	tapped := tapStore(tr, wb, layerSess, &sessCtx{})
	if _, ok := tapped.(ssp.ViewStore); ok {
		t.Error("tap over write-behind claims ssp.ViewStore, which write-behind lacks")
	}
	if err := tapped.(ssp.Flusher).Barrier(); err != nil {
		t.Error(err)
	}

	sh, err := shard.New([]shard.Backend{{ID: "s0", Store: ssp.NewMemStore()}, {ID: "s1", Store: ssp.NewMemStore()}},
		shard.Options{Replicas: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	rt, ok := tapStore(tr, sh, layerRemote, nil).(ssp.Router)
	if !ok || rt.Routes() != sh.Routes() {
		t.Fatalf("tap over the shard router does not route like it")
	}
	for i := 0; i < 64; i++ {
		key := fmt.Sprintf("k%d", i)
		if rt.RouteID(wire.NSMeta, key) != sh.RouteID(wire.NSMeta, key) {
			t.Fatalf("RouteID(%s) differs through the tap", key)
		}
	}
}

// runScript drives a fixed seeded sequence of file operations through
// alice's session, landing write-behind after every operation so each
// flush holds exactly one operation's writes whatever the timing.
func runScript(t *testing.T, st *stack, seed int64) {
	t.Helper()
	fs := st.fs[0]
	rng := rand.New(rand.NewSource(seed))
	model := map[string][]byte{}
	var live []string
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.barrier(); err != nil {
			t.Fatal(err)
		}
	}
	step(fs.Mkdir("/t", 0o750))
	for i := 0; i < 60; i++ {
		switch k := rng.Intn(5); {
		case k == 0 || len(live) < 3:
			p, data := fmt.Sprintf("/t/f%03d", i), payload(rng, 500+rng.Intn(4000))
			step(fs.WriteFile(p, data, 0o640))
			live = append(live, p)
			model[p] = data
		case k == 1:
			p, data := live[rng.Intn(len(live))], payload(rng, 300)
			step(fs.Append(p, data))
			model[p] = append(model[p], data...)
		case k == 2:
			p := live[rng.Intn(len(live))]
			got, err := fs.ReadFile(p)
			step(err)
			if !bytes.Equal(got, model[p]) {
				t.Fatalf("read %s: wrong content", p)
			}
		case k == 3:
			p := live[rng.Intn(len(live))]
			step(fs.Chmod(p, 0o600))
		default:
			j := rng.Intn(len(live))
			step(fs.Remove(live[j]))
			delete(model, live[j])
			live = append(live[:j], live[j+1:]...)
		}
	}
}

type pathCounts struct {
	flushes, items, lanes int64
	perNS                 map[wire.NS]int64
	bytes                 int64
}

func runShape(t *testing.T, cfg stackConfig, traced bool) (pathCounts, *tracer) {
	t.Helper()
	p := principalsForTest(t)
	var tr *tracer
	if traced {
		tr = newTracer()
		tr.start()
	}
	st, err := build(p, cfg, []sessionSpec{{user: p.alice, cache: -1}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, st, 42)
	if err := st.verify(); err != nil {
		t.Fatal(err)
	}
	c := pathCounts{
		flushes: st.reg.Counter("ssp.wb.flushes").Value(),
		items:   st.reg.Counter("ssp.wb.flushed_items").Value(),
		lanes:   st.reg.Counter("ssp.wb.lane_flushes").Value(),
		perNS:   map[wire.NS]int64{},
	}
	for _, b := range st.backings {
		s, err := b.Stats()
		if err != nil {
			t.Fatal(err)
		}
		c.bytes += s.Bytes
		for ns, n := range s.PerNS {
			c.perNS[ns] += n
		}
	}
	if err := st.close(); err != nil {
		t.Fatal(err)
	}
	if tr != nil {
		tr.stop()
	}
	return c, tr
}

// TestTracedStackTakesSamePaths runs one seeded script on the untraced
// and the traced stack of each write-behind workload shape and checks
// that the decorators changed nothing the program does: the same
// write-behind flushes and flushed items, the same per-backend lane
// splitting, the same objects stored, and the server reading through its
// borrowed-read path. Stored bytes may differ slightly because clients
// draw inode numbers at random and encode them as varints.
func TestTracedStackTakesSamePaths(t *testing.T) {
	wbOpt := ssp.WriteBehindOptions{MaxItems: 1 << 30, MaxBytes: 1 << 40, MaxDelay: time.Hour}
	shapes := map[string]stackConfig{
		"sharded": {profile: netsim.Unlimited, shards: 2, writeBehind: true, wbOpt: wbOpt},
		"single":  {profile: netsim.Unlimited, shards: 1, writeBehind: true, wbOpt: wbOpt},
	}
	for name, cfg := range shapes {
		t.Run(name, func(t *testing.T) {
			plain, _ := runShape(t, cfg, false)
			traced, tr := runShape(t, cfg, true)
			if plain.flushes == 0 || plain.flushes != traced.flushes || plain.items != traced.items {
				t.Errorf("write-behind flushes/items: untraced %d/%d, traced %d/%d",
					plain.flushes, plain.items, traced.flushes, traced.items)
			}
			// With two backends almost every multi-key flush splits into
			// two lanes; without a router there are no lanes.
			if cfg.shards > 1 {
				for _, c := range []pathCounts{plain, traced} {
					if c.lanes <= c.flushes || c.lanes > 2*c.flushes {
						t.Errorf("lane flushes %d for %d flushes: not split per backend", c.lanes, c.flushes)
					}
				}
			} else if plain.lanes != 0 || traced.lanes != 0 {
				t.Errorf("lane flushes without a router: %d, %d", plain.lanes, traced.lanes)
			}
			if fmt.Sprint(plain.perNS) != fmt.Sprint(traced.perNS) {
				t.Errorf("stored objects per namespace: untraced %v, traced %v", plain.perNS, traced.perNS)
			}
			if d := float64(plain.bytes-traced.bytes) / float64(plain.bytes); d > 0.01 || d < -0.01 {
				t.Errorf("stored bytes: untraced %d, traced %d", plain.bytes, traced.bytes)
			}
			views, copies := 0, 0
			spans, _ := tr.recorded()
			for _, s := range spans {
				if s.layer != layerStore {
					continue
				}
				switch s.method {
				case "getview", "listview", "batchgetview":
					views++
				case "get", "list", "batchget":
					copies++
				}
			}
			if views == 0 || copies != 0 {
				t.Errorf("server store reads: %d borrowed, %d copied; want all borrowed", views, copies)
			}
		})
	}
}

func TestCovered(t *testing.T) {
	ivs := []interval{{5, 10}, {0, 3}, {8, 12}, {20, 30}}
	if got := covered(ivs, interval{1, 25}); got != 2+7+5 {
		t.Errorf("covered = %d, want 14", got)
	}
	if got := covered(nil, interval{0, 10}); got != 0 {
		t.Errorf("covered(nil) = %d", got)
	}
}

func TestWindowRates(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) sample { return sample{end: t0.Add(time.Duration(ms) * time.Millisecond)} }
	// Windows of 1 s, 1 s and 2 s with 10, 30 and 40 ops: 10, 30 and 20 ops/s.
	var ops []sample
	for i := 0; i < 10; i++ {
		ops = append(ops, at(500))
	}
	for i := 0; i < 30; i++ {
		ops = append(ops, at(1000+i))
	}
	for i := 0; i < 40; i++ {
		ops = append(ops, at(3000))
	}
	ends := []time.Time{at(999).end, at(2000).end, at(4000).end}
	if got := median(windowRates(ops, t0, ends)); got < 19.9 || got > 20.1 {
		t.Errorf("median window rate = %g, want 20", got)
	}
}

func TestHedgeWon(t *testing.T) {
	cases := []struct {
		ls   []launch
		want bool
	}{
		{[]launch{{0, 5, true}, {2, 4, true}}, true},    // the hedge answered first
		{[]launch{{0, 3, true}, {2, 4, true}}, false},   // the first replica answered first
		{[]launch{{0, 3, false}, {2, 6, true}}, true},   // the first replica failed
		{[]launch{{2, 4, true}, {0, 5, true}}, true},    // recorded out of launch order
		{[]launch{{0, 3, false}, {2, 6, false}}, false}, // nobody answered
	}
	for i, c := range cases {
		if got := hedgeWon(c.ls); got != c.want {
			t.Errorf("case %d: hedgeWon = %v, want %v", i, got, c.want)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, e := range got {
			better := "lower"
			if want[i].higher {
				better = "higher"
			}
			if e.Name != want[i].name || e.Unit != want[i].unit || e.Better != better {
				t.Errorf("%s %d: %+v in BENCHMARK.json, %+v in the program", kind, i, e, want[i])
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}
