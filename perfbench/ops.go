package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/codec"
	"repro/internal/ledger"
	"repro/internal/matrix"
	"repro/internal/mmapfile"
	"repro/internal/privacy"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/transform"
	"repro/internal/workload"
)

// keepEpochs is how many of a tenant's newest epochs a publish loop
// keeps; older ones are deleted so disk use stays bounded.
const keepEpochs = 8

// Span-context headers: a traced request tells the mirror server which
// operation and parent span its handler span belongs to.
const (
	hdrOp     = "X-Bench-Op"
	hdrParent = "X-Bench-Parent"
	hdrSpan   = "X-Bench-Span"
)

// ledgerBook is the ε each tenant was successfully charged, per
// deployment, for the end-of-run balance check.
type ledgerBook struct {
	mu    sync.Mutex
	spent map[string]float64
}

func (b *ledgerBook) charge(tenant string) {
	b.mu.Lock()
	if b.spent == nil {
		b.spent = map[string]float64{}
	}
	b.spent[tenant] += epsilon
	b.mu.Unlock()
}

// check compares each tenant's ε spent, summed over the given bases,
// with the sum of its successful charges.
func (b *ledgerBook) check(e *env, bases []string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	for tenant, want := range b.spent {
		var got float64
		for _, base := range bases {
			s, err := e.spent(base, tenant)
			if err != nil {
				return err
			}
			got += s
		}
		if got != want {
			return &mismatch{fmt.Sprintf("tenant %s spent ε %v, successful charges sum to %v", tenant, got, want)}
		}
	}
	return nil
}

// created is the publish response fields the benchmark uses.
type created struct {
	ID       string   `json:"id"`
	Epoch    uint64   `json:"epoch"`
	Replicas []string `json:"replicas"`
}

// publishTo POSTs t as tenant and records the charge on success.
func (e *env) publishTo(base, tenant string, t *table, hdr http.Header, book *ledgerBook) (created, error) {
	var c created
	err := e.call("POST", base+"/tenants/"+url.PathEscape(tenant)+"/publish?"+t.publishQuery(), t.csv, hdr, &c)
	if err == nil {
		book.charge(tenant)
	}
	return c, err
}

// publishOp is one publish-workload operation: POST the CSV as tenant,
// answer one count on the new epoch, delete the epoch keepEpochs back.
// It returns the time from POST until the count is answered.
func (r *runner) publishOp(d *deploy, tenant string, t *table, q *queries, qi int, tr *tracer, op int64, parent int) (created, time.Duration, error) {
	base := d.entry
	start := time.Now()
	var c created
	err := tr.do(op, parent, "http.publish", func() (err error) {
		c, err = r.e.publishTo(base, tenant, t, nil, &d.book)
		return err
	})
	if err != nil {
		return c, 0, err
	}
	if err := tr.do(op, parent, "http.count", func() error {
		return r.e.count(base, c.ID, q.specs[qi], q.want[qi], nil)
	}); err != nil {
		return c, 0, err
	}
	ttfq := time.Since(start)
	if c.Epoch > keepEpochs {
		old := fmt.Sprintf("%s/%d", tenant, c.Epoch-keepEpochs)
		if err := tr.do(op, parent, "http.delete", func() error {
			return r.e.call("DELETE", base+"/releases/"+url.PathEscape(old), nil, nil, nil)
		}); err != nil {
			return c, 0, err
		}
	}
	return c, ttfq, nil
}

// firstRead records when the first body bytes arrive.
type firstRead struct {
	r     io.Reader
	first time.Time
}

func (f *firstRead) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.first.IsZero() {
		f.first = time.Now()
	}
	return n, err
}

// analystOp POSTs a 40k-query workload and reads the streamed answers
// through to the trailer. It returns the time until the trailer and
// until the first answer chunk.
func (r *runner) analystOp(base, id string, q *queries, hdr http.Header) (lat, ttfa time.Duration, err error) {
	start := time.Now()
	req, err := http.NewRequest("POST", base+"/releases/"+url.PathEscape(id)+"/query", bytes.NewReader(q.body))
	if err != nil {
		return 0, 0, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := r.e.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return 0, 0, &statusError{resp.StatusCode, string(b)}
	}
	fr := &firstRead{r: resp.Body}
	answers, trailer, err := workload.ReadAnswersJSON(fr)
	lat = time.Since(start)
	if err != nil {
		return 0, 0, err
	}
	if trailer.Status != workload.StatusOK || trailer.Answers != len(q.want) {
		return 0, 0, fmt.Errorf("workload on %s: trailer %+v, want %d answers", id, trailer, len(q.want))
	}
	if err := equalAnswers("workload on "+id, answers, q.want); err != nil {
		return 0, 0, err
	}
	return lat, fr.first.Sub(start), nil
}

// restartOp stops n, starts it again on the same directory and times
// until a count on id is answered (correctly) by the new process.
func (r *runner) restartOp(n *node, id, spec string, want float64, before func()) (time.Duration, error) {
	r.e.stop(n)
	if before != nil {
		before()
	}
	start := time.Now()
	if err := r.e.start(n); err != nil {
		return 0, err
	}
	for {
		err := r.e.count(n.url(), id, spec, want, nil)
		if err == nil {
			return time.Since(start), nil
		}
		if _, wrong := err.(*mismatch); wrong || time.Since(start) > 20*time.Second {
			return 0, err
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// mirror is an in-process node built from the same packages priveletd
// wires together, with a span around its handler: it gives the traced
// run the server's own time, which the separate process cannot.
type mirror struct {
	st  *store.Store
	srv *httptest.Server
}

func newMirror(dir string, maxResident int, tr *tracer) (*mirror, error) {
	st, err := store.New(store.Config{Dir: dir, MaxResident: maxResident})
	if err != nil {
		return nil, err
	}
	led, err := ledger.New(ledger.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	h := server.New(server.Config{Store: st, Ledger: led}).Handler()
	wrapped := http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		if name := req.Header.Get(hdrSpan); name != "" {
			op, _ := strconv.ParseInt(req.Header.Get(hdrOp), 10, 64)
			parent, _ := strconv.Atoi(req.Header.Get(hdrParent))
			tr.record(op, parent, name, start, end)
		}
	})
	return &mirror{st: st, srv: httptest.NewServer(wrapped)}, nil
}

// spanHeader asks the mirror to record its handler as span name, a
// child of parent in operation op.
func spanHeader(op int64, parent int, name string) http.Header {
	return http.Header{
		hdrOp:     {strconv.FormatInt(op, 10)},
		hdrParent: {strconv.Itoa(parent)},
		hdrSpan:   {name},
	}
}

// replayer holds the in-process store and ledger the traced run replays
// a workload's inputs through. The store has the mirror's resident
// budget and receives the same releases and the same reads in the same
// order, so a replayed store.get reloads exactly when the mirror's
// handler did.
type replayer struct {
	tr  *tracer
	m   *mirror
	st  *store.Store
	led *ledger.Ledger
	dir string
	// side values measured outside spans, per operation
	mu   sync.Mutex
	vals map[string][]float64
}

func newReplayer(tr *tracer, m *mirror, dir string, maxResident int) (*replayer, error) {
	st, err := store.New(store.Config{Dir: dir, MaxResident: maxResident})
	if err != nil {
		return nil, err
	}
	led, err := ledger.New(ledger.Config{Dir: dir})
	if err != nil {
		return nil, err
	}
	return &replayer{tr: tr, m: m, st: st, led: led, dir: dir, vals: map[string][]float64{}}, nil
}

// adopt copies a fixture release from the mirror's store into the
// replay store under the same ID.
func (p *replayer) adopt(id string) error {
	rel, err := p.m.st.Get(id)
	if err != nil {
		return err
	}
	return p.st.Put(id, rel.Payload, 0)
}

func (p *replayer) note(name string, v float64) {
	p.mu.Lock()
	p.vals[name] = append(p.vals[name], v)
	p.mu.Unlock()
}

// publish replays a tenant publish through the calls the publish
// handler makes, then (as "stages") the sub-matrix pipeline inside
// Mechanism.Publish and the prefix sum and encode inside store.Put.
func (p *replayer) publish(op int64, tenant string, t *table) error {
	tr := p.tr
	ctx := context.Background()
	params := privelet.Params{Epsilon: epsilon, SA: t.sa, Seed: t.seed}
	root := tr.begin(op, 0, "replay")
	var pub *privelet.Publisher
	err := tr.do(op, root, "cli.read_rows", func() (err error) {
		if pub, err = privelet.NewPublisher(t.schema); err != nil {
			return err
		}
		return cli.ReadRows(t.schema, bytes.NewReader(t.csv), pub.Add)
	})
	if err != nil {
		return err
	}
	p.note("cli.rows", float64(pub.Rows()))
	var epoch uint64
	err = tr.do(op, root, "ledger.charge", func() error {
		if _, err := p.led.Charge(tenant, epsilon); err != nil {
			return err
		}
		var err error
		epoch, err = p.led.NextEpoch(tenant)
		return err
	})
	if err != nil {
		return err
	}
	mech, err := privelet.MechanismByName("privelet+")
	if err != nil {
		return err
	}
	var res *privelet.Result
	if err := tr.do(op, root, "core.publish", func() (err error) {
		res, err = mech.Publish(ctx, pub.Frequency(), params)
		return err
	}); err != nil {
		return err
	}
	payload := &codec.Payload{
		Meta:   codec.Meta{Mechanism: mech.Name(), Epsilon: res.Epsilon, Rho: res.Rho, Lambda: res.Lambda, Bound: res.VarianceBound},
		Schema: t.schema, Noisy: res.Noisy,
	}
	id := fmt.Sprintf("%s/%d", tenant, epoch)
	if err := tr.do(op, root, "store.put", func() error { return p.st.Put(id, payload, 0) }); err != nil {
		return err
	}
	if epoch > keepEpochs {
		old := fmt.Sprintf("%s/%d", tenant, epoch-keepEpochs)
		if err := tr.do(op, root, "store.remove", func() error { return p.st.Remove(old) }); err != nil {
			return err
		}
	}
	tr.end(root)
	return p.stages(op, pub.Frequency().M, t, payload)
}

// stages replays Figure 5 sub-matrix by sub-matrix exactly as the
// engine runs it (one worker), checks the result is bit-identical to
// Mechanism.Publish's, then times the prefix sum and the encode.
func (p *replayer) stages(op int64, m *matrix.Matrix, t *table, want *codec.Payload) error {
	tr := p.tr
	root := tr.begin(op, 0, "stages")
	defer tr.end(root)
	var saIdx, restIdx []int
	inSA := map[string]bool{}
	for _, a := range t.sa {
		inSA[a] = true
	}
	specs := t.schema.Specs()
	var restSpecs []transform.Spec
	for i := 0; i < t.schema.NumAttrs(); i++ {
		if inSA[t.schema.Attr(i).Name] {
			saIdx = append(saIdx, i)
		} else {
			restIdx = append(restIdx, i)
			restSpecs = append(restSpecs, specs[i])
		}
	}
	hn, err := transform.New(restSpecs...)
	if err != nil {
		return err
	}
	lambda := 2 * hn.GeneralizedSensitivity() / epsilon
	weights := make([][]float64, hn.NumDims())
	for i := range weights {
		weights[i] = hn.WeightVector(i)
	}
	sizes := make([]int, len(saIdx))
	subs := 1
	for i, si := range saIdx {
		sizes[i] = t.schema.Attr(si).Size
		subs *= sizes[i]
	}
	p.note("core.submatrices", float64(subs))
	noisy, err := matrix.New(m.Dims()...)
	if err != nil {
		return err
	}
	ex := transform.Exec{Workers: 1, Pipe: matrix.NewPipeline(), Cache: hn.NewKernelCache(1)}
	coords := make([]int, len(saIdx))
	var sub *matrix.Matrix
	for idx := 0; idx < subs; idx++ {
		rem := idx
		for k := len(saIdx) - 1; k >= 0; k-- {
			coords[k] = rem % sizes[k]
			rem /= sizes[k]
		}
		if sub, err = m.SubInto(saIdx, coords, sub); err != nil {
			return err
		}
		var c, rec *matrix.Matrix
		if err := tr.do(op, root, "transform.forward", func() (err error) { c, err = hn.ForwardExec(sub, ex); return err }); err != nil {
			return err
		}
		if err := tr.do(op, root, "privacy.inject", func() error {
			return privacy.InjectLaplaceCtx(context.Background(), c, weights, lambda, rng.SubstreamSeed(t.seed, uint64(idx)), 1)
		}); err != nil {
			return err
		}
		if err := tr.do(op, root, "transform.inverse", func() (err error) { rec, err = hn.InverseExec(c, ex); return err }); err != nil {
			return err
		}
		if err := noisy.SetSub(saIdx, coords, rec); err != nil {
			return err
		}
	}
	if err := equalAnswers("stage replay of Mechanism.Publish", noisy.Data(), want.Noisy.Data()); err != nil {
		return err
	}
	table := noisy.Clone()
	_ = tr.do(op, root, "matrix.prefixsum", func() error { table.PrefixSumExec(runtime.GOMAXPROCS(0)); return nil })
	cw := &countWriter{}
	full := *want
	full.Table, full.Total = table, noisy.Total()
	if err := tr.do(op, root, "codec.encode", func() error { return codec.Encode(cw, &full) }); err != nil {
		return err
	}
	p.note("codec.bytes_per_cell", float64(cw.n)/float64(noisy.Len()))
	return nil
}

type countWriter struct{ n int64 }

func (c *countWriter) Write(b []byte) (int, error) { c.n += int64(len(b)); return len(b), nil }

// workload replays a batch query through the calls the query handler
// makes, reading the release from the mirror's store.
func (p *replayer) workload(op int64, id string, q *queries) error {
	tr := p.tr
	root := tr.begin(op, 0, "replay")
	defer tr.end(root)
	var rel store.Release
	if err := tr.do(op, root, "store.get", func() (err error) { rel, err = p.st.Get(id); return err }); err != nil {
		return err
	}
	schema := rel.Payload.Schema
	var qs []query.Query
	err := tr.do(op, root, "workload.spec_parse", func() error {
		src := workload.Queries(schema, workload.NewLineSpecs(bytes.NewReader(q.body)))
		for {
			qq, ok, err := src()
			if err != nil || !ok {
				return err
			}
			qs = append(qs, qq)
		}
	})
	if err != nil {
		return err
	}
	cw := &countWriter{}
	par := runtime.GOMAXPROCS(0)
	aw := workload.NewAnswerJSON(cw, par)
	answers := make([]float64, 0, len(qs))
	exec := tr.begin(op, root, "query.execute")
	start := time.Now()
	n, err := query.Batch{Eval: rel.Eval, Workers: par}.ExecuteStream(context.Background(), query.SliceSource(qs), func(a []float64) error {
		if len(answers) == 0 {
			p.note("query.ttfa_ms", ms(time.Since(start)))
		}
		answers = append(answers, a...)
		return tr.do(op, exec, "workload.answer_write", func() error { return aw.WriteChunk(a) })
	})
	if err == nil {
		err = tr.do(op, exec, "workload.answer_write", func() error {
			return aw.Close(workload.Trailer{Answers: n, Status: workload.StatusOK})
		})
	}
	tr.end(exec)
	if err != nil {
		return err
	}
	p.note("workload.answer_bytes", float64(cw.n))
	return equalAnswers("replayed workload on "+id, answers, q.want)
}

// count replays a single count through the calls the count handler
// makes, then times a mapped decode of one of the mirror's spill files.
func (p *replayer) count(op int64, id, spec string, want float64) error {
	tr := p.tr
	root := tr.begin(op, 0, "replay")
	var rel store.Release
	if err := tr.do(op, root, "store.get", func() (err error) { rel, err = p.st.Get(id); return err }); err != nil {
		return err
	}
	var q query.Query
	if err := tr.do(op, root, "query.parse", func() (err error) { q, err = query.Parse(rel.Payload.Schema, spec); return err }); err != nil {
		return err
	}
	var got []float64
	err := tr.do(op, root, "query.count", func() error {
		_, err := query.Batch{Eval: rel.Eval, Workers: 1}.ExecuteStream(context.Background(), query.SliceSource([]query.Query{q}),
			func(a []float64) error { got = append(got, a...); return nil })
		return err
	})
	tr.end(root)
	if err != nil {
		return err
	}
	if err := equalAnswers("replayed count on "+id, got, []float64{want}); err != nil {
		return err
	}
	files, err := filepath.Glob(filepath.Join(p.dir, "*.prvl"))
	if err != nil || len(files) == 0 {
		return fmt.Errorf("no spill files in the mirror's store: %v", err)
	}
	sort.Strings(files)
	return p.decode(op, 0, files[int(op)%len(files)])
}

// decode times one mapped decode of a spill file.
func (p *replayer) decode(op int64, parent int, path string) error {
	return p.tr.do(op, parent, "codec.decode_mapped", func() error {
		f, err := mmapfile.Open(path)
		if err != nil {
			return err
		}
		_, _, err = codec.DecodeMapped(f.Data(), f)
		return err
	})
}

// recover replays a restart's recovery on a stopped node's directory:
// the store's recovery, the ledger load, and (as "stages") a mapped
// decode of every spill file.
func (p *replayer) recover(op int64, dir string) error {
	tr := p.tr
	root := tr.begin(op, 0, "replay")
	var st *store.Store
	if err := tr.do(op, root, "store.recover", func() (err error) { st, err = store.New(store.Config{Dir: dir}); return err }); err != nil {
		return err
	}
	p.note("store.recovered_releases", float64(st.Len()))
	if err := tr.do(op, root, "ledger.open", func() error { _, err := ledger.New(ledger.Config{Dir: dir}); return err }); err != nil {
		return err
	}
	tr.end(root)
	files, err := filepath.Glob(filepath.Join(dir, "*.prvl"))
	if err != nil {
		return err
	}
	stages := tr.begin(op, 0, "stages")
	defer tr.end(stages)
	for _, f := range files {
		if err := p.decode(op, stages, f); err != nil {
			return err
		}
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
