package main

import (
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Fixture sizes. Each is stated next to the cache or budget it is
// measured against in README.md.
const (
	setupRepeats = 5     // set-ups per run; setup_s is their median
	failedFloor  = 0.001 // failed_ops_ratio with no failures

	publishRows   = 100_000 // tuples per census CSV in the publish loop
	publishTables = 3       // distinct (CSV, seed) pairs the loop cycles

	analystRows      = 20_000
	analystQueries   = 40_000 // §VII-A workload size
	analystPerClient = 8      // distinct workloads each client cycles

	restartReleases = 4
	restartRows     = 20_000

	maxResidentSmall = 2 // -max-resident of the analyst node

	probeRows      = 20_000
	probeWorkloads = 12 // distinct 40k-query workloads the probes cycle
	probeCounts    = 40 // counts per probe round
	// A 40k-query workload varies most from one to the next (a
	// quarter about its median, against a tenth for a publish), so
	// each probe round runs two.
	probeWorkloadsPerRound = 2
	tracedProbes           = 3 // probe rounds in a traced run

	// An untraced run measures in rounds: a slice of the workload's
	// own loop, then one probe round (about 0.3 s). A warm-up of
	// warmLen of the loop comes first: the publish loop's node holds
	// keepEpochs releases, and its first publishes grow its heap.
	sliceLen = 600 * time.Millisecond
	warmLen  = time.Second
)

const clusterSecret = "perfbench-secret"

// release is a fixture release as the deployment holds it.
type release struct {
	id       string
	q        *queries
	replicas []string
}

// deploy is one set-up: the processes and the fixture releases.
type deploy struct {
	entry   string // where clients send requests: the node, or the router
	nodes   []*node
	router  *node
	byName  map[string]*node
	restart *node
	rels    []release
	book    ledgerBook // ε charged on this deployment
}

func (d *deploy) nodeURLs() []string {
	out := make([]string, len(d.nodes))
	for i, n := range d.nodes {
		out[i] = n.url()
	}
	return out
}

// workloadImpl is one workload's set-up and measured loop.
type workloadImpl interface {
	// prepare generates the run's inputs from the seed (once per run).
	prepare(r *runner) error
	// setup boots the processes and publishes the fixtures.
	setup(r *runner, rep int) (*deploy, error)
	// mirror publishes the fixtures to the traced run's mirror.
	mirror(r *runner, d *deploy) error
	// loop runs the measured loop for dur; traced interleaves an
	// untraced and a traced operation.
	loop(r *runner, d *deploy, dur time.Duration, traced bool) error
}

type workloadDef struct {
	name        string
	native      string // the op kind the loop runs
	maxResident int
	impl        workloadImpl
}

var workloads = map[string]*workloadDef{
	"publish": {name: "publish", native: "publish", impl: &publishWL{}},
	"analyst": {name: "analyst", native: "analyst", maxResident: maxResidentSmall, impl: &analystWL{}},
	"restart": {name: "restart", native: "restart", impl: &restartWL{}},
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// bootNode starts one node with the given operator flags.
func (r *runner) bootNode(name string, flags ...string) (*node, error) {
	n, err := r.e.newNode(name, flags...)
	if err != nil {
		return nil, err
	}
	return n, r.e.boot(n)
}

func (r *runner) teardown(d *deploy) {
	if d == nil {
		return
	}
	if d.router != nil {
		r.e.stop(d.router)
	}
	for _, n := range d.nodes {
		r.e.stop(n)
		_ = os.RemoveAll(n.dir) // the node's own scratch directory
	}
}

// publishFixtures publishes each table as its tenant through base and
// records where the release landed.
func (r *runner) publishFixtures(d *deploy, tenants []string, tables []*table, qs []*queries) error {
	for i, t := range tables {
		c, err := r.e.publishTo(d.entry, tenants[i], t, nil, &d.book)
		if err != nil {
			return fmt.Errorf("fixture publish %s: %w", tenants[i], err)
		}
		d.rels = append(d.rels, release{id: c.ID, q: qs[i], replicas: c.Replicas})
	}
	return nil
}

// ---- publish ----

type publishWL struct {
	tables []*table
	qs     []*queries
	next   int // the loop's next operation, across slices
}

func (w *publishWL) prepare(r *runner) error {
	for i := 0; i < publishTables; i++ {
		t, err := newCensus(brazil, publishRows, seedFor(r.cfg.seed, uint64(10+i)), seedFor(r.cfg.seed, uint64(20+i)))
		if err != nil {
			return err
		}
		q, err := newQueries(t, 64, seedFor(r.cfg.seed, uint64(30+i)))
		if err != nil {
			return err
		}
		dropRefs(t)
		w.tables, w.qs = append(w.tables, t), append(w.qs, q)
	}
	return nil
}

func (w *publishWL) setup(r *runner, rep int) (*deploy, error) {
	n, err := r.bootNode(fmt.Sprintf("node-%d", rep))
	if err != nil {
		return nil, err
	}
	d := &deploy{entry: n.url(), nodes: []*node{n}, restart: n}
	return d, r.publishFixtures(d, []string{"warm"}, w.tables[:1], w.qs[:1])
}

func (w *publishWL) mirror(*runner, *deploy) error { return nil }

func (w *publishWL) loop(r *runner, d *deploy, dur time.Duration, traced bool) error {
	end := time.Now().Add(dur)
	for ; time.Now().Before(end); w.next++ {
		i := w.next
		k := i % len(w.tables)
		if _, err := r.publishIter(d, "bench", w.tables[k], w.qs[k], i%len(w.qs[k].specs), traced && i%2 == 1, true); err != nil {
			return err
		}
	}
	return nil
}

// publishIter runs one publish operation, traced or not, and (if keep)
// records its time to first query. Only a wrong answer aborts the
// loop; other failures are counted.
func (r *runner) publishIter(d *deploy, tenant string, t *table, q *queries, qi int, traced, keep bool) (created, error) {
	if !traced {
		c, ttfq, err := r.publishOp(d, tenant, t, q, qi, nil, 0, 0)
		r.reads.Add(1)
		if r.tally.add(err) && keep {
			r.sample("publish_ttfq_ms", ms(ttfq))
		}
		return c, fatal(err)
	}
	op := r.newOp("publish")
	root := r.tr.begin(op, 0, "op")
	c, _, err := r.publishOp(d, tenant, t, q, qi, r.tr, op, root)
	r.tr.end(root)
	r.reads.Add(1)
	if !r.tally.add(err) {
		r.kinds.Delete(op)
		return c, fatal(err)
	}
	mroot := r.tr.begin(op, 0, "mirror.publish")
	mc, err := r.e.publishTo(r.mir.srv.URL, tenant, t, spanHeader(op, mroot, "server.publish"), &r.mbook)
	r.tr.end(mroot)
	if err != nil {
		return c, err
	}
	if mc.Epoch > keepEpochs {
		if err := r.e.call("DELETE", r.mir.srv.URL+"/releases/"+url.PathEscape(fmt.Sprintf("%s/%d", tenant, mc.Epoch-keepEpochs)), nil, nil, nil); err != nil {
			return c, err
		}
	}
	return c, r.rp.publish(op, tenant, t)
}

// fatal passes on only the errors that must stop the run: wrong
// answers. Other failures are counted and the loop goes on.
func fatal(err error) error {
	if _, ok := err.(*mismatch); ok {
		return err
	}
	return nil
}

// ---- analyst ----

type analystWL struct {
	tables []*table
	work   [][]*queries // per client
	next   [2]int       // each client's next workload, across slices
}

func (w *analystWL) prepare(r *runner) error {
	for c := 0; c < 2; c++ {
		t, err := newCensus(brazil, analystRows, seedFor(r.cfg.seed, uint64(40+c)), seedFor(r.cfg.seed, uint64(50+c)))
		if err != nil {
			return err
		}
		w.tables = append(w.tables, t)
		var ws []*queries
		for k := 0; k < analystPerClient; k++ {
			q, err := newQueries(t, analystQueries, seedFor(r.cfg.seed, uint64(1000+100*c+k)))
			if err != nil {
				return err
			}
			ws = append(ws, q)
		}
		dropRefs(t)
		w.work = append(w.work, ws)
	}
	return nil
}

func (w *analystWL) setup(r *runner, rep int) (*deploy, error) {
	n, err := r.bootNode(fmt.Sprintf("node-%d", rep), "-max-resident", fmt.Sprint(maxResidentSmall))
	if err != nil {
		return nil, err
	}
	d := &deploy{entry: n.url(), nodes: []*node{n}, restart: n}
	return d, r.publishFixtures(d, []string{"a", "a"}, w.tables, []*queries{w.work[0][0], w.work[1][0]})
}

func (w *analystWL) mirror(r *runner, d *deploy) error {
	for _, t := range w.tables {
		if err := r.mirrorFixture("a", t); err != nil {
			return err
		}
	}
	return nil
}

// mirrorFixture publishes a fixture to the mirror and copies the
// release into the replay store.
func (r *runner) mirrorFixture(tenant string, t *table) error {
	c, err := r.e.publishTo(r.mir.srv.URL, tenant, t, nil, &r.mbook)
	if err != nil {
		return err
	}
	return r.rp.adopt(c.ID)
}

func (w *analystWL) loop(r *runner, d *deploy, dur time.Duration, traced bool) error {
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	end := start.Add(dur)
	var answered atomic.Int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ; time.Now().Before(end); w.next[c]++ {
				k := w.next[c]
				q := w.work[c][k%len(w.work[c])]
				ok, err := r.analystIter(d.entry, d.rels[c].id, q, traced && k%2 == 1)
				if ok {
					answered.Add(int64(len(q.want)))
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r.sample("queries_per_s", float64(answered.Load())/time.Since(start).Seconds())
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// analystIter runs one 40k-query workload operation, traced or not.
func (r *runner) analystIter(base, id string, q *queries, traced bool) (bool, error) {
	if !traced {
		lat, ttfa, err := r.analystOp(base, id, q, nil)
		r.reads.Add(1)
		ok := r.tally.add(err)
		if ok {
			r.sample("workload_ms", ms(lat))
			r.sample("workload_ttfa_ms", ms(ttfa))
		}
		return ok, fatal(err)
	}
	op := r.newOp("analyst")
	root := r.tr.begin(op, 0, "op")
	_, _, err := r.analystOp(base, id, q, nil)
	r.tr.end(root)
	r.reads.Add(1)
	if !r.tally.add(err) {
		r.kinds.Delete(op)
		return false, fatal(err)
	}
	mroot := r.tr.begin(op, 0, "mirror.query")
	_, _, err = r.analystOp(r.mir.srv.URL, id, q, spanHeader(op, mroot, "server.query"))
	r.tr.end(mroot)
	if err != nil {
		return true, err
	}
	return true, r.rp.workload(op, id, q)
}

// ---- cluster ----

// bootCluster boots n nodes and a router over them with replication 2,
// operator flags only. The nodes get no -peers, so they run no
// anti-entropy sweeps, which would land in the middle of a measurement.
func (r *runner) bootCluster(prefix string, n int) (*deploy, error) {
	d := &deploy{byName: map[string]*node{}}
	var peers []string
	for i := 0; i < n; i++ {
		nd, err := r.e.newNode(fmt.Sprintf("%s%d", prefix, i+1))
		if err != nil {
			return d, err
		}
		nd.args = append(nd.args, "-node-name", nd.name, "-cluster-secret", clusterSecret)
		nd.probe = true
		d.nodes = append(d.nodes, nd)
		d.byName[nd.name] = nd
		peers = append(peers, nd.name+"=http://"+nd.addr)
		if err := r.e.boot(nd); err != nil {
			return d, err
		}
	}
	rt, err := r.e.newRouter("-peers", strings.Join(peers, ","), "-replicas", "2", "-cluster-secret", clusterSecret)
	if err != nil {
		return d, err
	}
	rt.probe = true
	d.router, d.entry, d.restart = rt, rt.url(), d.nodes[0]
	return d, r.e.boot(rt)
}

// countIter runs one routed count, traced or not. Traced, it also asks
// a replica directly (cluster.route_self is the difference), the mirror
// node (for the handler's time), and replays the handler's calls.
func (r *runner) countIter(d *deploy, rel release, qi int, traced bool, i int) error {
	spec, want := rel.q.specs[qi], rel.q.want[qi]
	if !traced {
		start := time.Now()
		err := r.e.count(d.entry, rel.id, spec, want, nil)
		r.reads.Add(1)
		if r.tally.add(err) {
			r.sample("count_us", us(time.Since(start)))
		}
		return fatal(err)
	}
	op := r.newOp("count")
	root := r.tr.begin(op, 0, "op")
	err := r.e.count(d.entry, rel.id, spec, want, nil)
	r.tr.end(root)
	r.reads.Add(1)
	if !r.tally.add(err) {
		r.kinds.Delete(op)
		return fatal(err)
	}
	if d.router != nil && len(rel.replicas) > 0 {
		// The router's own time is a routed request less the same
		// request sent straight to a replica. A release description
		// never touches the store, so which replica answers (and
		// whether it had to reload) does not enter the difference.
		n := d.byName[rel.replicas[i%len(rel.replicas)]]
		path := "/releases/" + url.PathEscape(rel.id)
		err := r.tr.do(op, 0, "http.routed_describe", func() error { return r.e.call("GET", d.entry+path, nil, nil, nil) })
		if err == nil {
			err = r.tr.do(op, 0, "http.direct_describe", func() error { return r.e.call("GET", n.url()+path, nil, nil, nil) })
		}
		if !r.tally.add(err) {
			return fatal(err)
		}
	}
	mroot := r.tr.begin(op, 0, "mirror.count")
	err = r.e.count(r.mir.srv.URL, rel.id, spec, want, spanHeader(op, mroot, "server.count"))
	r.tr.end(mroot)
	if err != nil {
		return err
	}
	return r.rp.count(op, rel.id, spec, want)
}

// ---- restart ----

type restartWL struct {
	tables []*table
	qs     []*queries
	rnd    *rng.Source // which release and query each restart asks, across slices
}

func (w *restartWL) prepare(r *runner) error {
	for i := 0; i < restartReleases; i++ {
		t, err := newCensus(brazil, restartRows, seedFor(r.cfg.seed, uint64(130+i)), seedFor(r.cfg.seed, uint64(140+i)))
		if err != nil {
			return err
		}
		q, err := newQueries(t, 64, seedFor(r.cfg.seed, uint64(150+i)))
		if err != nil {
			return err
		}
		dropRefs(t)
		w.tables, w.qs = append(w.tables, t), append(w.qs, q)
	}
	return nil
}

func (w *restartWL) setup(r *runner, rep int) (*deploy, error) {
	n, err := r.bootNode(fmt.Sprintf("node-%d", rep))
	if err != nil {
		return nil, err
	}
	d := &deploy{entry: n.url(), nodes: []*node{n}, restart: n}
	tenants := make([]string, len(w.tables))
	for i := range tenants {
		tenants[i] = "r"
	}
	return d, r.publishFixtures(d, tenants, w.tables, w.qs)
}

func (w *restartWL) mirror(*runner, *deploy) error { return nil }

func (w *restartWL) loop(r *runner, d *deploy, dur time.Duration, traced bool) error {
	if w.rnd == nil {
		w.rnd = rng.New(seedFor(r.cfg.seed, 160))
	}
	end := time.Now().Add(dur)
	for i := 0; time.Now().Before(end); i++ {
		rel := d.rels[w.rnd.Intn(len(d.rels))]
		qi := w.rnd.Intn(len(rel.q.specs))
		if err := r.restartIter(d.restart, rel.id, rel.q.specs[qi], rel.q.want[qi], traced && i%2 == 1); err != nil {
			return err
		}
	}
	return nil
}

// restartIter runs one restart operation, traced or not. Traced, the
// node's recovery is replayed in-process while the node is down.
func (r *runner) restartIter(n *node, id, spec string, want float64, traced bool) error {
	if !traced {
		ttfq, err := r.restartOp(n, id, spec, want, nil)
		if r.tally.add(err) {
			r.sample("restart_ttfq_ms", ms(ttfq))
		}
		return fatal(err)
	}
	op := r.newOp("restart")
	var replayErr error
	var root int
	ttfq, err := r.restartOp(n, id, spec, want, func() {
		replayErr = r.rp.recover(op, n.dir)
		root = r.tr.begin(op, 0, "op")
	})
	r.tr.end(root)
	_ = ttfq
	if !r.tally.add(err) {
		r.kinds.Delete(op)
		return fatal(err)
	}
	return replayErr
}

// ---- measurement ----

// measure runs the workload: set-up (repeated), the measured rounds
// (traced: the traced loop, then traced probes), and the end-of-run
// checks, then fills out.
func (wl *workloadDef) measure(r *runner, out metrics) error {
	t0 := time.Now()
	phase := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: %-8s done at %6.2f s\n", name, time.Since(t0).Seconds())
	}
	if err := wl.impl.prepare(r); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	pr, err := newProbes(r.cfg.seed)
	if err != nil {
		return fmt.Errorf("prepare probes: %w", err)
	}
	phase("prepare")
	var setups []float64
	var d *deploy
	for rep := 0; rep < setupRepeats; rep++ {
		r.teardown(d)
		start := time.Now()
		d, err = wl.impl.setup(r, rep)
		if err != nil {
			r.teardown(d)
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	phase("setup")
	if r.cfg.trace {
		return wl.traced(r, d, pr, out)
	}
	if err := pr.start(r); err != nil {
		return fmt.Errorf("probe setup: %w", err)
	}
	// Warm-up, not sampled: the loop, then a probe round.
	r.round.Store(-1)
	if err := wl.impl.loop(r, d, warmLen, false); err != nil {
		return err
	}
	if err := r.probeRound(pr, wl.native, false); err != nil {
		return err
	}
	// Set-up garbage is collected now, not by the load generator while
	// it measures.
	runtime.GC()
	var steal []float64
	stealOK := true
	end := time.Now().Add(time.Duration(r.cfg.seconds) * time.Second)
	for k := 0; time.Now().Before(end); k++ {
		r.round.Store(int64(k))
		s0, ok0 := stealTicks()
		if err := wl.impl.loop(r, d, sliceLen, false); err != nil {
			return err
		}
		if err := r.probeRound(pr, wl.native, false); err != nil {
			return err
		}
		s1, ok1 := stealTicks()
		stealOK = stealOK && ok0 && ok1
		steal = append(steal, s1-s0)
	}
	phase("rounds")
	fmt.Fprintf(os.Stderr, "perfbench: steal per round, in ticks of 10 ms: %v\n", steal)
	r.rounds = len(steal)
	if stealOK {
		r.quiet = quietRounds(steal)
		r.steal = steal
	}
	if err := r.checks(d); err != nil {
		r.tally.add(err)
	}
	r.teardown(d)
	pr.stop(r)
	r.endToEnd(out, setups, r.e.peakRSSMB(), wl.native)
	return nil
}

// traced is the traced run: the workload's loop with traced and
// untraced operations interleaved, then traced probes of the other
// operation kinds on probe nodes booted after the workload's processes
// are stopped.
func (wl *workloadDef) traced(r *runner, d *deploy, pr *probeSet, out metrics) error {
	dur := time.Duration(r.cfg.seconds) * time.Second * 3 / 4
	var err error
	r.tr = newTracer()
	if r.mir, err = newMirror(filepath.Join(r.e.root, "mirror"), wl.maxResident, r.tr); err != nil {
		return err
	}
	defer r.mir.srv.Close()
	if r.rp, err = newReplayer(r.tr, r.mir, filepath.Join(r.e.root, "replay"), wl.maxResident); err != nil {
		return err
	}
	if err := wl.impl.mirror(r, d); err != nil {
		return fmt.Errorf("mirror setup: %w", err)
	}
	before := r.snapStats(d)
	runtime.GC()
	if err := wl.impl.loop(r, d, dur, true); err != nil {
		return err
	}
	after := r.snapStats(d)
	if err := r.checks(d); err != nil {
		r.tally.add(err)
	}
	r.teardown(d)
	if err := pr.start(r); err != nil {
		return fmt.Errorf("probe setup: %w", err)
	}
	cbefore := r.snapStats(pr.cd)
	for i := 0; i < tracedProbes; i++ {
		if err := r.probeRound(pr, wl.native, true); err != nil {
			return err
		}
	}
	cafter := r.snapStats(pr.cd)
	pr.stop(r)
	path := filepath.Join(filepath.Dir(r.cfg.work), "traces", fmt.Sprintf("%s-seed%d.jsonl", wl.name, r.cfg.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		if err := r.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
		}
	}
	r.layerMetrics(out, wl.native, before, after, cbefore, cafter)
	return nil
}

// checks is the end-of-run correctness gate beyond the per-answer
// comparisons: ε balances, and every fixture answered correctly by
// every replica directly.
func (r *runner) checks(d *deploy) error {
	if err := d.book.check(r.e, d.nodeURLs()); err != nil {
		return err
	}
	if r.mir != nil {
		if err := r.mbook.check(r.e, []string{r.mir.srv.URL}); err != nil {
			return err
		}
	}
	for _, rel := range d.rels {
		targets := rel.replicas
		if d.router == nil {
			targets = []string{""}
		}
		for _, name := range targets {
			base := d.entry
			if name != "" {
				base = d.byName[name].url()
			}
			for qi := 0; qi < min(8, len(rel.q.specs)); qi++ {
				if err := r.e.count(base, rel.id, rel.q.specs[qi], rel.q.want[qi], nil); err != nil {
					return fmt.Errorf("replica %s: %w", name, err)
				}
			}
		}
	}
	return nil
}

// endToEnd fills the untraced run's metrics from the samples of its
// quiet rounds (see quietRounds). A timing of a kind the loop does not
// run comes from the probes, one sample a round: too few for a tail, so
// every name of that kind, _p90 and _p95 too, reports the probes'
// interquartile mean (see iqm).
func (r *runner) endToEnd(out metrics, setups []float64, peakMB float64, native string) {
	attempted, failed := r.tally.attempted.Load(), r.tally.failed.Load()
	out.set("setup_s", median(setups), "s")
	// A floor of one failure in 1 000 keeps the ratio above 0, so that a
	// relative bound applies, without tying it to how many operations a
	// time-bound loop managed: with no failures it reads 0.001.
	out.set("failed_ops_ratio", failedFloor+float64(failed)/float64(attempted), "ratio")
	out.set("node_peak_rss_mb", peakMB, "MB")
	tail := func(name, sampleName, kind string, p float64, unit string) {
		if kind != native {
			out.set(name, iqm(r.quietSamples(sampleName)), unit)
			return
		}
		xs := r.quietSamples(sampleName)
		if !tailOK(len(xs), p) {
			fmt.Fprintf(os.Stderr, "perfbench: %s from %d samples leaves fewer than %d beyond p%g\n", name, len(xs), minBeyond, p)
		}
		out.set(name, percentile(xs, p), unit)
	}
	tail("publish_ttfq_p50_ms", "publish_ttfq_ms", "publish", 50, "ms")
	tail("publish_ttfq_p90_ms", "publish_ttfq_ms", "publish", 90, "ms")
	tail("workload_p50_ms", "workload_ms", "analyst", 50, "ms")
	tail("workload_p95_ms", "workload_ms", "analyst", 95, "ms")
	tail("workload_ttfa_p50_ms", "workload_ttfa_ms", "analyst", 50, "ms")
	if native == "analyst" {
		// One sample a slice: the loop's rate over it.
		out.set("queries_per_s", median(r.quietSamples("queries_per_s")), "1/s")
	} else {
		// One sample a probe: 40 000 ÷ the workload's time.
		out.set("queries_per_s", iqm(r.quietSamples("queries_per_s")), "1/s")
	}
	tail("count_p50_us", "count_us", "count", 50, "us")
	tail("count_p99_us", "count_us", "count", 99, "us")
	tail("restart_ttfq_p50_ms", "restart_ttfq_ms", "restart", 50, "ms")
	tail("restart_ttfq_p90_ms", "restart_ttfq_ms", "restart", 90, "ms")
}
