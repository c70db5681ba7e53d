package cluster

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"cloudburst/internal/apps"
	"cloudburst/internal/chunk"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
	"cloudburst/internal/workload"
)

// Tests for the full-duplex global reduction (streamed plan): the
// head streams the merge of every other cluster down to the laggard
// while the laggard's own result is still uploading, instead of
// waiting for all results and broadcasting the final to everyone.

// rawMaster drives the master side of the head protocol by hand, but
// does its reductions for real so final counts stay exact.
type rawMaster struct {
	t      *testing.T
	c      *wire.Conn
	site   string
	eng    *gr.Engine
	stores map[string]store.Store // data site -> store
	red    gr.Reduction
	done   []int32 // processed, not yet reported
	oc     objectCollector
}

func newRawMaster(t *testing.T, headAddr string, cfg DeployConfig, site string) *rawMaster {
	t.Helper()
	c := dialWire(t, headAddr)
	if _, err := c.Call(&wire.Message{Kind: wire.KindRegisterMaster, Site: site, Cores: 1}); err != nil {
		t.Fatal(err)
	}
	m := &rawMaster{
		t: t, c: c, site: site,
		eng:    gr.NewEngine(cfg.App, gr.EngineOptions{}),
		stores: make(map[string]store.Store),
		red:    cfg.App.NewReduction(),
		oc:     objectCollector{merger: gr.NewMerger(cfg.App, gr.MergerOptions{})},
	}
	for _, s := range cfg.Sites {
		m.stores[s.Name] = s.HomeStore
	}
	return m
}

// work asks the head for up to max jobs and reduces the grant for
// real; it reports whether the head's pool had nothing left to grant.
func (m *rawMaster) work(max int) bool {
	m.t.Helper()
	if err := m.c.Send(&wire.Message{Kind: wire.KindRequestJobs, Site: m.site, Max: max}); err != nil {
		m.t.Fatal(err)
	}
	resp := m.recv()
	if resp.Kind != wire.KindJobs {
		m.t.Fatalf("%s: request answered %v", m.site, resp.Kind)
	}
	for _, j := range resp.Jobs {
		data := make([]byte, j.Length)
		if _, err := m.stores[j.HomeSite].ReadAt(j.File, data, j.Offset); err != nil {
			m.t.Fatal(err)
		}
		if _, err := m.eng.ProcessChunk(m.red, data); err != nil {
			m.t.Fatal(err)
		}
		m.done = append(m.done, j.Chunk)
	}
	return resp.Done
}

// drain works until the head's pool is dry.
func (m *rawMaster) drain() {
	for !m.work(4) {
	}
}

// deliver streams the reduction as object parts, then the terminal
// cluster-result naming every processed chunk.
func (m *rawMaster) deliver() {
	m.t.Helper()
	ow := wire.NewObjectWriter(m.c, 0)
	if err := m.red.Encode(ow); err != nil {
		m.t.Fatal(err)
	}
	if err := ow.Close(); err != nil {
		m.t.Fatal(err)
	}
	if err := m.c.Send(&wire.Message{Kind: wire.KindClusterResult, Site: m.site, Completed: m.done}); err != nil {
		m.t.Fatal(err)
	}
	m.done = nil
}

func (m *rawMaster) recv() *wire.Message {
	m.t.Helper()
	resp, err := m.c.Recv()
	if err != nil {
		m.t.Fatalf("%s: recv: %v", m.site, err)
	}
	return resp
}

// recvStream reads one part stream and returns the decoded object plus
// the message that terminated it (KindPartial or KindFinal).
func (m *rawMaster) recvStream() (gr.Reduction, *wire.Message) {
	m.t.Helper()
	for {
		resp := m.recv()
		if resp.Kind == wire.KindObjectPart {
			if err := m.oc.feed(resp); err != nil {
				m.t.Fatal(err)
			}
			continue
		}
		if !m.oc.pending() {
			m.t.Fatalf("%s: %v arrived with no object parts before it", m.site, resp.Kind)
		}
		obj, _, _, err := m.oc.take()
		if err != nil {
			m.t.Fatal(err)
		}
		return obj, resp
	}
}

// expectBareFinal asserts the next message is the object-less Final
// with no parts ahead of it, and acks it.
func (m *rawMaster) expectBareFinal() {
	m.t.Helper()
	resp := m.recv()
	if resp.Kind != wire.KindFinal || resp.Object != nil {
		m.t.Fatalf("%s: expected a bare final, got %v (object %d bytes)", m.site, resp.Kind, len(resp.Object))
	}
	m.ack()
}

// expectStreamedFinal asserts the merged result arrives as parts
// closed by Final, acks it, and returns the object.
func (m *rawMaster) expectStreamedFinal() gr.Reduction {
	m.t.Helper()
	obj, end := m.recvStream()
	if end.Kind != wire.KindFinal {
		m.t.Fatalf("%s: final stream closed by %v", m.site, end.Kind)
	}
	m.ack()
	return obj
}

// expectPartial asserts the others' merge arrives closed by
// KindPartial — called BEFORE this master delivers, which is the point.
func (m *rawMaster) expectPartial() gr.Reduction {
	m.t.Helper()
	obj, end := m.recvStream()
	if end.Kind != wire.KindPartial {
		m.t.Fatalf("%s: early stream closed by %v, want partial", m.site, end.Kind)
	}
	return obj
}

func (m *rawMaster) ack() {
	m.t.Helper()
	if err := m.c.Send(&wire.Message{Kind: wire.KindAck}); err != nil {
		m.t.Fatal(err)
	}
}

// expectSilence asserts the head sends nothing for a short while.
func (m *rawMaster) expectSilence() {
	m.t.Helper()
	m.c.SetIdleTimeout(150 * time.Millisecond)
	defer m.c.SetIdleTimeout(0)
	if resp, err := m.c.Recv(); err == nil {
		m.t.Fatalf("%s: head sent %v while other clusters were still expected", m.site, resp.Kind)
	} else if !wire.IsTimeout(err) {
		m.t.Fatalf("%s: %v", m.site, err)
	}
}

// startHeadN is startHead for a scripted run with n clusters.
func startHeadN(t *testing.T, cfg DeployConfig, n int, mode string) (*Head, string) {
	t.Helper()
	head, err := NewHead(HeadConfig{App: cfg.App, Index: cfg.Index, Clusters: n, SyncMode: mode})
	if err != nil {
		t.Fatal(err)
	}
	ln := mustListen(t)
	head.Serve(ln)
	return head, ln.Addr().String()
}

func TestExchangePartialPrecedesLaggardResult(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 1, 1)
	head, addr := startHeadN(t, cfg, 2, "")
	a := newRawMaster(t, addr, cfg, "local")
	b := newRawMaster(t, addr, cfg, "cloud")
	a.work(6)
	b.work(6)
	a.drain()
	b.drain()
	aOnly, err := gr.EncodeReduction(a.red)
	if err != nil {
		t.Fatal(err)
	}

	a.deliver()
	// b has not shipped a byte of its result, yet a's merge is already
	// coming down its connection.
	partial := b.expectPartial()
	want, err := gr.DecodeReduction(cfg.App, aOnly)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, partial, want.(interface{ Counts() map[string]int64 }).Counts())

	b.deliver()
	b.expectBareFinal()
	final := a.expectStreamedFinal()
	checkCounts(t, final, wantCounts(gen, 4000))

	report, headFinal, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, headFinal, wantCounts(gen, 4000))
	if report.Sync.PartialSite != "cloud" {
		t.Fatalf("laggard = %q, want cloud", report.Sync.PartialSite)
	}
	if report.Sync.PartialHiddenEmu < 0 {
		t.Fatalf("negative hidden time %v", report.Sync.PartialHiddenEmu)
	}
	// Exactly two head-side streams: the partial and a's final.
	if report.Sync.Parts != 2 {
		t.Fatalf("head streamed %d parts, want 2", report.Sync.Parts)
	}
}

func TestExchangeThreeMastersOnlyLastGetsPartial(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 1, 1)
	head, addr := startHeadN(t, cfg, 3, "")
	a := newRawMaster(t, addr, cfg, "local")
	b := newRawMaster(t, addr, cfg, "cloud")
	c := newRawMaster(t, addr, cfg, "mars")
	a.work(5)
	b.work(5)
	c.work(5)
	a.drain()
	b.drain()
	c.drain()

	a.deliver()
	// Two clusters are still expected: nobody is the laggard yet.
	b.expectSilence()
	c.expectSilence()
	b.deliver()
	c.expectPartial() // a ⊕ b, before c delivers
	c.deliver()
	c.expectBareFinal()
	want := wantCounts(gen, 4000)
	checkCounts(t, a.expectStreamedFinal(), want)
	checkCounts(t, b.expectStreamedFinal(), want)

	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, want)
	if report.Sync.PartialSite != "mars" {
		t.Fatalf("laggard = %q, want mars", report.Sync.PartialSite)
	}
}

func TestExchangeLaggardReelectedWhenClusterLost(t *testing.T) {
	cfg, gen := fixture(t, 4000, 4, 2, 1, 1)
	head, addr := startHeadN(t, cfg, 3, "")
	a := newRawMaster(t, addr, cfg, "local")
	b := newRawMaster(t, addr, cfg, "cloud")
	c := newRawMaster(t, addr, cfg, "mars")
	a.work(5)
	b.work(5) // b dies holding these
	c.work(5)
	a.drain()
	c.drain()

	a.deliver()
	c.expectSilence() // b and c both pending
	b.c.Close()
	// With b gone c is the only cluster left to wait for.
	c.expectPartial()
	c.drain() // b's requeued jobs
	c.deliver()
	c.expectBareFinal()
	want := wantCounts(gen, 4000)
	checkCounts(t, a.expectStreamedFinal(), want)

	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, want)
	if report.Sync.PartialSite != "mars" {
		t.Fatalf("laggard = %q, want mars", report.Sync.PartialSite)
	}
}

func TestExchangeLaggardDiesAfterPartial(t *testing.T) {
	for _, tc := range []struct {
		name    string
		holding bool // the laggard dies with jobs nobody is left to redo
	}{{"idle", false}, {"holding-jobs", true}} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			cfg, gen := fixture(t, 4000, 4, 2, 1, 1)
			head, addr := startHeadN(t, cfg, 2, "")
			a := newRawMaster(t, addr, cfg, "local")
			b := newRawMaster(t, addr, cfg, "cloud")
			if tc.holding {
				b.work(3)
			}
			a.drain()
			a.deliver()
			b.expectPartial()
			b.c.Close()

			// The survivor's protocol is unchanged: parts, Final, ack.
			final := a.expectStreamedFinal()
			_, headFinal, err := head.Wait()
			if tc.holding {
				if err == nil || !strings.Contains(err.Error(), "unaccounted") {
					t.Fatalf("err = %v, want jobs unaccounted", err)
				}
			} else {
				if err != nil {
					t.Fatal(err)
				}
				// Everything was a's: the partial is the final.
				checkCounts(t, final, wantCounts(gen, 4000))
				checkCounts(t, headFinal, wantCounts(gen, 4000))
			}
			a.c.Close()
			waitGoroutines(t, base, 2)
		})
	}
}

func TestExchangeSingleClusterSendsNoFinalParts(t *testing.T) {
	cfg, gen := fixture(t, 2000, 2, 2, 1, 0)
	head, addr := startHeadN(t, cfg, 1, "")
	a := newRawMaster(t, addr, cfg, "local")
	a.drain()
	a.deliver()
	a.expectBareFinal() // its own combine is the final: nothing to send back
	report, final, err := head.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, final, wantCounts(gen, 2000))
	if report.Sync.Parts != 0 || report.Sync.PartialSite != "" {
		t.Fatalf("head streamed %d parts to a lone cluster (laggard %q)", report.Sync.Parts, report.Sync.PartialSite)
	}

	// And through the real master: slave->master and master->head
	// streams only, and the master returns its own combine.
	cfg, gen = fixture(t, 2000, 2, 2, 2, 0)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkCounts(t, res.PerSiteFinal["local"], wantCounts(gen, 2000))
	if res.Report.Sync.Parts != 3 {
		t.Fatalf("%d parts streamed, want 3 (2 slaves + 1 master)", res.Report.Sync.Parts)
	}
}

// twoSiteConfig materializes gen's records over two sites for app.
func twoSiteConfig(t *testing.T, app gr.App, gen workload.Generator, records int64) DeployConfig {
	t.Helper()
	stores := map[string]*store.Mem{"local": store.NewMem(), "cloud": store.NewMem()}
	metas, err := workload.Materialize(gen, workload.Spec{Records: records, Files: 4, LocalFiles: 2}, stores)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := chunk.Build(map[string]store.Store{"local": stores["local"], "cloud": stores["cloud"]},
		metas, chunk.BuildOptions{RecordSize: int32(app.RecordSize()), ChunkBytes: int64(app.RecordSize()) * 256})
	if err != nil {
		t.Fatal(err)
	}
	return DeployConfig{
		App: app, Index: idx,
		Sites: []SiteSpec{
			{Name: "local", Cores: 2, HomeStore: stores["local"],
				RemoteStores: map[string]store.Store{"cloud": stores["cloud"]}},
			{Name: "cloud", Cores: 2, HomeStore: stores["cloud"],
				RemoteStores: map[string]store.Store{"local": stores["local"]}},
		},
	}
}

func TestExchangePerSiteFinalEqualsHeadFinal(t *testing.T) {
	knn, err := apps.NewKNN(apps.Params{"k": "50", "dims": "2"})
	if err != nil {
		t.Fatal(err)
	}
	pr, err := apps.NewPageRank(apps.Params{"pages": "2000", "mindeg": "2", "maxdeg": "8", "cost": "0s"})
	if err != nil {
		t.Fatal(err)
	}
	wcCfg, _ := fixture(t, 3000, 3, 2, 2, 2)
	cases := map[string]DeployConfig{
		"wordcount": wcCfg,
		"knn":       twoSiteConfig(t, knn, workload.Points{Dims: 2, Seed: 77, WithID: true}, 8000),
		"pagerank":  twoSiteConfig(t, pr, pr.Graph, pr.Graph.TotalEdges()),
	}
	for name, cfg := range cases {
		for _, mode := range []string{SyncStreamedParallel, SyncMonolithic} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				cfg.SyncMode = mode
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.PerSiteFinal) != 2 {
					t.Fatalf("%d per-site finals", len(res.PerSiteFinal))
				}
				if mode == SyncMonolithic && res.Report.Sync.PartialSite != "" {
					t.Fatal("monolithic ran the exchange")
				}
				for site, got := range res.PerSiteFinal {
					sameReduction(t, site, got, res.Final)
				}
			})
		}
	}
}

// sameReduction compares two final objects in each app's comparable
// form: counts and neighbour ids exactly, floats to 1e-9 relative.
func sameReduction(t *testing.T, what string, got, want gr.Reduction) {
	t.Helper()
	close := func(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(b), 1e-300) }
	switch w := want.(type) {
	case interface{ Counts() map[string]int64 }:
		checkCounts(t, got, w.Counts())
	case interface{ Neighbors() []gr.Scored }:
		g, ws := got.(interface{ Neighbors() []gr.Scored }).Neighbors(), w.Neighbors()
		if len(g) != len(ws) {
			t.Fatalf("%s: %d neighbours, want %d", what, len(g), len(ws))
		}
		for i := range ws {
			if g[i].ID != ws[i].ID || !close(g[i].Score, ws[i].Score) {
				t.Fatalf("%s: neighbour %d = %+v, want %+v", what, i, g[i], ws[i])
			}
		}
	case interface{ NextRanks() []float64 }:
		g, ws := got.(interface{ NextRanks() []float64 }).NextRanks(), w.NextRanks()
		if len(g) != len(ws) {
			t.Fatalf("%s: %d ranks, want %d", what, len(g), len(ws))
		}
		for i := range ws {
			if !close(g[i], ws[i]) {
				t.Fatalf("%s: rank %d = %g, want %g", what, i, g[i], ws[i])
			}
		}
	default:
		t.Fatalf("no comparable form for %T", want)
	}
}

// TestHeadReaderAppliesScaleWhileIdle: a KindScale push must take
// effect the moment it arrives, not at the master's next head
// exchange — here the master is parked on a full queue and never
// makes one.
func TestHeadReaderAppliesScaleWhileIdle(t *testing.T) {
	cfg, _ := fixture(t, 1000, 2, 2, 1, 0)
	headLn := mustListen(t)
	defer headLn.Close()
	requests := make(chan wire.Kind, 16)
	push := make(chan struct{})
	go func() { // scripted head
		raw, err := headLn.Accept()
		if err != nil {
			return
		}
		c := wire.NewConn(raw)
		defer c.Close()
		if _, err := c.Recv(); err != nil { // register
			return
		}
		c.Send(&wire.Message{Kind: wire.KindAck})
		go func() {
			<-push
			c.Send(&wire.Message{Kind: wire.KindScale, Site: "local", Target: 1})
		}()
		for {
			req, err := c.Recv()
			if err != nil {
				return
			}
			requests <- req.Kind
			// One grant fills the queue above the watermark; nobody
			// consumes it, so the refill loop parks.
			jobs := make([]wire.JobAssign, 8)
			for i := range jobs {
				jobs[i] = wire.JobAssign{Chunk: int32(i), File: "f", Length: 1, HomeSite: "local"}
			}
			c.Send(&wire.Message{Kind: wire.KindJobs, Jobs: jobs})
		}
	}()

	_, masterAddr, done := startMaster(t, cfg, headLn.Addr().String(), 2)
	pushes := make(chan wire.Kind, 4)
	var slaves []*wire.Conn
	for i := 0; i < 2; i++ {
		c := dialWire(t, masterAddr)
		if _, err := c.Call(&wire.Message{Kind: wire.KindRegisterSlave, Site: "local"}); err != nil {
			t.Fatal(err)
		}
		// A served grant proves the master counts this slave as a member
		// (and leaves its queue above the watermark).
		if _, err := c.Call(&wire.Message{Kind: wire.KindRequestJob, Max: 1}); err != nil {
			t.Fatal(err)
		}
		slaves = append(slaves, c)
		go func() {
			if m, err := c.Recv(); err == nil {
				pushes <- m.Kind
			}
		}()
	}
	if k := <-requests; k != wire.KindRequestJobs {
		t.Fatalf("first request %v", k)
	}
	close(push)
	select {
	case k := <-pushes:
		if k != wire.KindDrain {
			t.Fatalf("slave received %v, want drain", k)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("scale push sat unread until the next head exchange")
	}
	select {
	case k := <-requests:
		t.Fatalf("master made a head exchange (%v); the push should not have needed one", k)
	default:
	}
	headLn.Close()
	for _, c := range slaves {
		c.Close()
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("master did not shut down")
	}
}

// TestExchangeWallExcludesResultShip: a cluster's Wall ends at its
// local combine in every sync mode; the slow trip to the head is
// ResultShip, not Wall (streamed used to stamp Wall after the upload).
func TestExchangeWallExcludesResultShip(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	for _, mode := range []string{SyncStreamedParallel, SyncMonolithic} {
		t.Run(mode, func(t *testing.T) {
			// One cluster, so its result is the whole final object and the
			// transfer time is known.
			cfg, gen := fixture(t, 4000, 4, 0, 0, 2)
			cfg.Clock = netsim.Scaled(0.01)
			cfg.SyncMode = mode
			// Only the object is big enough to outlast the burst allowance.
			cfg.Sites[0].HeadLink = netsim.Link{Name: "wan", PerStream: 100, Burst: 100}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkCounts(t, res.Final, wantCounts(gen, 4000))
			enc, err := gr.EncodeReduction(res.Final)
			if err != nil {
				t.Fatal(err)
			}
			transfer := time.Duration(float64(len(enc)-100) / 100 * float64(time.Second))
			cloud := res.Report.Cluster("cloud")
			if cloud.ResultShip < transfer/2 {
				t.Fatalf("cloud ResultShip = %v, the %d-byte object needs ~%v on this link", cloud.ResultShip, len(enc), transfer)
			}
			if cloud.Wall+cloud.ResultShip > res.Report.TotalWall {
				t.Fatalf("Wall %v + ResultShip %v exceed the run's %v: Wall includes the transfer",
					cloud.Wall, cloud.ResultShip, res.Report.TotalWall)
			}
		})
	}
}
