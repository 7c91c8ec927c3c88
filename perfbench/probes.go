package main

import (
	"fmt"
	"time"
)

// probeSet is what each run uses to probe the operations its own loop
// does not perform, so every run reports every metric: a census table,
// count queries, 40k-query workloads, and processes of their own. The
// publishes have a node to themselves: sharing one heap, publishes and
// workloads met the node's garbage collection in a pattern that was
// set early in a run and moved either kind's times by up to 40% from
// one run to the next.
type probeSet struct {
	t    *table
	q    *queries
	work []*queries
	pd   *deploy // publish probes
	cd   *deploy // two nodes and a router holding one release of t
	rd   *deploy // restart probes: restartReleases releases of t
	last release // the newest release on pd
	n    int     // probe rounds so far
}

func newProbes(seed uint64) (*probeSet, error) {
	t, err := newCensus(brazil, probeRows, seedFor(seed, 200), seedFor(seed, 201))
	if err != nil {
		return nil, err
	}
	q, err := newQueries(t, 64, seedFor(seed, 202))
	if err != nil {
		return nil, err
	}
	p := &probeSet{t: t, q: q}
	for i := 0; i < probeWorkloads; i++ {
		w, err := newQueries(t, analystQueries, seedFor(seed, uint64(210+i)))
		if err != nil {
			return nil, err
		}
		p.work = append(p.work, w)
	}
	dropRefs(t)
	return p, nil
}

// start boots the probe nodes and publishes the probe table to them.
// The probe nodes stay out of node_peak_rss_mb.
func (p *probeSet) start(r *runner) error {
	boot := func(name string) (*deploy, error) {
		n, err := r.e.newNode(name)
		if err != nil {
			return nil, err
		}
		n.probe = true
		d := &deploy{entry: n.url(), nodes: []*node{n}, restart: n}
		return d, r.e.boot(n)
	}
	var err error
	if p.pd, err = boot("probe-publish"); err != nil {
		return err
	}
	// In a traced run the first publish also goes to the mirror and the
	// replay store as probe/1, the ID the workload and count probes ask
	// for. An untraced run publishes until the node holds as many probe
	// releases as it keeps, so its heap has grown before it measures.
	for i := 0; i == 0 || r.tr == nil && i <= keepEpochs; i++ {
		c, err := r.publishIter(p.pd, "probe", p.t, p.q, 0, r.tr != nil, false)
		if err != nil {
			return err
		}
		if c.ID == "" {
			return fmt.Errorf("probe publish failed")
		}
		p.last = release{id: c.ID, q: p.q}
	}
	if p.cd, err = r.bootCluster("probe-n", 2); err != nil {
		return err
	}
	if err := r.publishFixtures(p.cd, []string{"probe"}, []*table{p.t}, []*queries{p.q}); err != nil {
		return err
	}
	if p.rd, err = boot("probe-restart"); err != nil {
		return err
	}
	tenants, tables, qs := make([]string, restartReleases), make([]*table, restartReleases), make([]*queries, restartReleases)
	for i := range tenants {
		tenants[i], tables[i], qs[i] = "r", p.t, p.q
	}
	return r.publishFixtures(p.rd, tenants, tables, qs)
}

// stop checks the probe deployments and stops their nodes.
func (p *probeSet) stop(r *runner) {
	if p.pd != nil {
		p.pd.rels = []release{p.last} // older ones are deleted
	}
	for _, d := range []*deploy{p.pd, p.cd, p.rd} {
		if d == nil {
			continue
		}
		if err := r.checks(d); err != nil {
			r.tally.add(err)
		}
		r.teardown(d)
	}
}

// round runs one probe of every operation kind other than native, one
// client, closed loop: a publish of the probe table as tenant "probe"
// (its time to first query), probeWorkloadsPerRound 40k-query
// workloads sent straight to the first cluster node, probeCounts
// counts through the router, and a restart of the restart node. A run
// takes one probe round after each slice of its own loop, so each
// kind's samples spread over the whole run, as the loop's do. Traced,
// a round also publishes through the router, for the cluster layer.
func (r *runner) probeRound(p *probeSet, native string, traced bool) error {
	i := p.n
	p.n++
	if native != "publish" {
		c, err := r.publishIter(p.pd, "probe", p.t, p.q, i%len(p.q.specs), traced, true)
		if err != nil {
			return err
		}
		if c.ID != "" {
			p.last = release{id: c.ID, q: p.q}
		}
	}
	rel := p.cd.rels[0]
	if native != "analyst" {
		for j := 0; j < probeWorkloadsPerRound; j++ {
			w := p.work[(i*probeWorkloadsPerRound+j)%len(p.work)]
			t0 := time.Now()
			ok, err := r.analystIter(p.cd.nodes[0].url(), rel.id, w, traced)
			if ok && !traced {
				r.sample("queries_per_s", float64(len(w.want))/time.Since(t0).Seconds())
			}
			if err != nil {
				return err
			}
		}
	}
	for j := 0; j < probeCounts; j++ {
		if err := r.countIter(p.cd, rel, (i*probeCounts+j)%len(p.q.specs), traced, j); err != nil {
			return err
		}
	}
	if traced {
		// A routed publish against the same publish to the mirror:
		// cluster.replication_ms is the difference.
		start := time.Now()
		_, err := r.e.publishTo(p.cd.entry, "cprobe", p.t, nil, &p.cd.book)
		routed := time.Since(start)
		if !r.tally.add(err) {
			return fatal(err)
		}
		start = time.Now()
		if _, err := r.e.publishTo(r.mir.srv.URL, "cprobe", p.t, nil, &r.mbook); err != nil {
			return err
		}
		r.sample("cluster.replication_ms", ms(routed-time.Since(start)))
		r.sample("routed_publishes", 1)
	}
	if native != "restart" {
		rel := p.rd.rels[i%len(p.rd.rels)]
		qi := i % len(rel.q.specs)
		if err := r.restartIter(p.rd.restart, rel.id, rel.q.specs[qi], rel.q.want[qi], traced); err != nil {
			return err
		}
	}
	return nil
}
