package main

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"time"

	"cloudburst"
	"cloudburst/internal/chunk"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
	"cloudburst/internal/wire"
)

// Layer micro-timings: timed calls into each layer's public functions,
// each a fixed time box. They are measured from outside the program
// and reported with every traced run, so a later change to one layer
// shows in its own number before it shows (or fails to show) end to
// end. Message shapes follow `cbbench -experiment wire`, so the wire
// numbers line up with BENCH_wire.json.

// timeBox calls fn in batches for about box and returns nanoseconds
// and heap allocations per call.
func timeBox(box time.Duration, fn func() error) (nsOp, allocsOp float64, err error) {
	for i := 0; i < 8; i++ { // reach steady state: pools filled, code warm
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	ops := 0
	for time.Since(start) < box {
		for i := 0; i < 8; i++ {
			if err := fn(); err != nil {
				return 0, 0, err
			}
		}
		ops += 8
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(ops),
		float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

func mbPerS(bytes int, nsOp float64) float64 { return float64(bytes) / 1e6 / (nsOp / 1e9) }

// microTimings runs every M metric once, each for about box.
func microTimings(box time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, step := range []func(time.Duration, map[string]float64) error{
		microCluster, microChunk, microStore, microWire, microGR, microNetsim,
	} {
		if err := step(box, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// microCluster: one instant-clock deployment over 9,600 one-record
// jobs; the wall time per job is the head grant + master queue + slave
// request round trip with next to no data and no compute.
func microCluster(_ time.Duration, out map[string]float64) error {
	const jobs = 9600
	app, err := cloudburst.NewApp("knn", map[string]string{"k": "10", "dims": "3", "cost": "0s"})
	if err != nil {
		return err
	}
	mem := cloudburst.NewMemStore()
	metas, err := cloudburst.Materialize(
		cloudburst.PointsGen{Dims: 3, Seed: 7, WithID: true},
		cloudburst.DataSpec{Records: jobs, Files: 2, LocalFiles: 2},
		map[string]*cloudburst.MemStore{"local": mem})
	if err != nil {
		return err
	}
	rs := app.RecordSize()
	idx, err := cloudburst.BuildIndex(map[string]cloudburst.Store{"local": mem}, metas,
		cloudburst.BuildOptions{RecordSize: int32(rs), ChunkBytes: int64(rs)})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := cloudburst.Deploy(cloudburst.DeployConfig{
		App: app, Index: idx, Clock: netsim.Instant(),
		Sites:      []cloudburst.SiteSpec{{Name: "local", Cores: 2, HomeStore: mem}},
		GroupUnits: groupUnits, JobsPerRequest: 1, SyncMode: "monolithic",
	})
	if err != nil {
		return err
	}
	if got := res.Report.JobsProcessed(); got != jobs {
		return fmt.Errorf("per-job overhead run processed %d of %d jobs", got, jobs)
	}
	out["cluster.per_job_overhead_us"] = time.Since(start).Seconds() * 1e6 / jobs
	return nil
}

// syntheticIndex lays n equal chunks over 32 files, alternating sites.
func syntheticIndex(n int) *chunk.Index {
	idx := &chunk.Index{RecordSize: 20}
	for f := 0; f < 32; f++ {
		site := "local"
		if f%2 == 1 {
			site = "cloud"
		}
		idx.Files = append(idx.Files, chunk.FileMeta{Name: fmt.Sprintf("f%02d", f), Site: site})
	}
	for i := 0; i < n; i++ {
		f := int32(i * 32 / n)
		idx.Chunks = append(idx.Chunks, chunk.Chunk{ID: int32(i), File: f, Length: 20, Units: 1})
	}
	return idx
}

func microChunk(box time.Duration, out map[string]float64) error {
	// One cycle drains a whole pool: the local site takes two jobs for
	// each one the cloud site takes, so the local site runs dry first
	// and ends the cycle stealing.
	for _, c := range []struct {
		n    int
		name string
	}{{960, "chunk.pool_cycle_ns_960"}, {100_000, "chunk.pool_cycle_ns_100k"}} {
		idx := syntheticIndex(c.n)
		var elapsed time.Duration
		cycles := 0
		for elapsed < box {
			p := chunk.NewPool(idx)
			start := time.Now()
			for turn := 0; !p.Done(); turn++ {
				site := "local"
				if turn%3 == 2 {
					site = "cloud"
				}
				as := p.Acquire(site, 1)
				if len(as) == 0 {
					continue // this site's side is drained and nothing is left to steal
				}
				if err := p.Complete([]int32{as[0].Chunk.ID}); err != nil {
					return err
				}
			}
			elapsed += time.Since(start)
			cycles++
		}
		out[c.name] = float64(elapsed.Nanoseconds()) / float64(cycles*c.n)
	}

	// Index build over the knn-cloud geometry: 12 MB in 32 files, 960 jobs.
	mem := store.NewMem()
	var metas []chunk.FileMeta
	for f := 0; f < 32; f++ {
		name := fmt.Sprintf("f%02d", f)
		mem.Put(name, make([]byte, 375_000))
		metas = append(metas, chunk.FileMeta{Name: name, Site: "cloud"})
	}
	ns, _, err := timeBox(box, func() error {
		_, err := chunk.Build(map[string]store.Store{"cloud": mem}, metas,
			chunk.BuildOptions{RecordSize: 20, ChunkBytes: 12_500})
		return err
	})
	out["chunk.index_build_ms"] = ns / 1e6
	return err
}

func microStore(box time.Duration, out map[string]float64) error {
	const chunkLen = 1 << 20
	mem := store.NewMem()
	mem.Put("obj", make([]byte, 64<<20))

	// Fetch of one 1 MiB chunk in 256 KiB ranges into a pooled buffer,
	// first from memory, then through a store daemon on loopback TCP.
	fetch := func(st store.Store) (float64, float64, error) {
		pool := store.NewBufferPool()
		opts := store.FetchOptions{Threads: 4, RangeSize: 256 << 10, Pool: pool}
		return timeBox(box, func() error {
			buf, err := store.Fetch(st, "obj", chunkLen, chunkLen, opts)
			pool.Put(buf)
			return err
		})
	}
	ns, allocs, err := fetch(mem)
	if err != nil {
		return err
	}
	out["store.fetch_mem_mb_s"], out["store.fetch_allocs"] = mbPerS(chunkLen, ns), allocs

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := store.Serve(ln, mem)
	client := store.NewClient(srv.Addr(), nil)
	ns, _, err = fetch(client)
	client.Close() // before its server, see instance.close
	srv.Close()
	if err != nil {
		return err
	}
	out["store.fetch_tcp_mb_s"] = mbPerS(chunkLen, ns)

	// ChunkCache: a resident 64 KiB chunk, then a stream of distinct
	// keys through a cache that holds 16 of them (insert + evict).
	const small = 64 << 10
	pool := store.NewBufferPool()
	cache := store.NewChunkCache(16*small, pool)
	load := func() ([]byte, error) { return pool.Get(small), nil }
	key := store.ChunkKey{Site: "cloud", File: "obj", Len: small}
	ns, _, err = timeBox(box, func() error {
		_, release, _, err := cache.GetOrFetch(key, load)
		release()
		return err
	})
	if err != nil {
		return err
	}
	out["store.cache_hit_ns"] = ns
	next := int64(0)
	ns, _, err = timeBox(box, func() error {
		next += small
		_, release, _, err := cache.GetOrFetch(store.ChunkKey{Site: "cloud", File: "obj", Off: next, Len: small}, load)
		release()
		return err
	})
	if err != nil {
		return err
	}
	out["store.cache_miss_ns"] = ns

	// SiteBuffer over the in-memory backing: the same two paths one
	// tier down, including the copy into the caller's buffer and, on a
	// miss, the backing Fetch.
	buffer := store.NewSiteBuffer(store.SiteBufferConfig{
		Site: "cloud", Backing: mem, Capacity: 16 * small,
		Fetch: store.FetchOptions{Threads: 1, RangeSize: small},
	})
	p := make([]byte, small)
	ns, _, err = timeBox(box, func() error {
		_, _, err := buffer.ReadAtHit("obj", p, 0)
		return err
	})
	if err != nil {
		return err
	}
	out["store.sitebuffer_hit_ns"] = ns
	next = 0
	ns, _, err = timeBox(box, func() error {
		next = (next + small) % (63 << 20)
		_, _, err := buffer.ReadAtHit("obj", p, next)
		return err
	})
	buffer.Drain()
	out["store.sitebuffer_miss_ns"] = ns
	return err
}

func microWire(box time.Duration, out map[string]float64) error {
	grant := &wire.Message{Kind: wire.KindJobGrant}
	for i := int32(0); i < 8; i++ {
		grant.Jobs = append(grant.Jobs, wire.JobAssign{
			Chunk: i, File: "data-0003.bin", Offset: int64(i) * 131072,
			Length: 131072, Units: 4096, HomeSite: "cloud", Stolen: i%2 == 0,
		})
		grant.Hints = append(grant.Hints, wire.JobAssign{
			Chunk: 100 + i, File: "data-0004.bin", Offset: int64(i) * 131072,
			Length: 131072, Units: 4096, HomeSite: "cloud",
		})
	}
	data := make([]byte, 256<<10)
	for i := range data {
		data[i] = byte(i * 131)
	}
	resp := &wire.Message{Kind: wire.KindReadResp, Data: data}

	// Encode into a reused buffer, decode against a pool, recycle the
	// decoded Data: what Conn.Send/Recv and the store client do.
	roundTrip := func(m *wire.Message) (float64, float64, error) {
		pool := store.NewBufferPool()
		var buf []byte
		return timeBox(box, func() error {
			var err error
			if buf, err = wire.Encode(buf[:0], m, wire.CodecBinary); err != nil {
				return err
			}
			got, err := wire.Decode(buf, pool)
			if err == nil && got.Data != nil {
				pool.Put(got.Data)
			}
			return err
		})
	}
	ns, allocs, err := roundTrip(grant)
	if err != nil {
		return err
	}
	out["wire.jobgrant_ns"], out["wire.jobgrant_allocs"] = ns, allocs
	ns, allocs, err = roundTrip(resp)
	if err != nil {
		return err
	}
	out["wire.readresp_mb_s"], out["wire.readresp_allocs"] = mbPerS(len(data), ns), allocs

	// A 4 MiB object through ObjectWriter -> loopback TCP -> ObjectStream.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	sender := wire.NewConn(raw)
	defer sender.Close()
	peer := <-accepted
	if peer == nil {
		return fmt.Errorf("object stream: accept failed")
	}
	receiver := wire.NewConn(peer)
	defer receiver.Close()
	sender.SetBufferPool(store.NewBufferPool())
	receiver.SetBufferPool(store.NewBufferPool())

	object := make([]byte, 4<<20)
	received := make(chan error) // one value per object, then one on close
	go func() {
		for {
			stream := wire.NewObjectStream()
			drained := make(chan struct{})
			go func() {
				io.Copy(io.Discard, stream.Reader())
				close(drained)
			}()
			for done := false; !done; {
				m, err := receiver.Recv()
				if err != nil {
					stream.Abort(err)
					<-drained
					received <- err
					return
				}
				done, err = stream.Feed(m)
				receiver.Recycle(m.Data)
				if err != nil {
					<-drained
					received <- err
					return
				}
			}
			<-drained
			received <- nil
		}
	}()
	ns, _, err = timeBox(box, func() error {
		ow := wire.NewObjectWriter(sender, 0)
		if _, err := ow.Write(object); err != nil {
			return err
		}
		if err := ow.Close(); err != nil {
			return err
		}
		return <-received
	})
	sender.Close()
	if err == nil {
		<-received // the receiver's exit on the closed connection
	}
	out["wire.objectstream_mb_s"] = mbPerS(len(object), ns)
	return err
}

func microGR(box time.Duration, out map[string]float64) error {
	const units = 32768
	engines := []struct {
		metric string
		app    string
		params map[string]string
	}{
		{"gr.engine_knn_ns_unit", "knn", map[string]string{"k": "1000", "dims": "3"}},
		{"gr.engine_kmeans_ns_unit", "kmeans", map[string]string{"k": "64", "dims": "8"}},
		{"gr.engine_pagerank_ns_unit", "pagerank", map[string]string{"pages": "75000", "mindeg": "10", "maxdeg": "16"}},
	}
	var pagerank cloudburst.App
	for _, e := range engines {
		app, err := cloudburst.NewApp(e.app, e.params)
		if err != nil {
			return err
		}
		gen, _, err := generatorFor(app, 11, units)
		if err != nil {
			return err
		}
		pagerank = app // the last one; the merger and codec timings below use it
		mem := cloudburst.NewMemStore()
		metas, err := cloudburst.Materialize(gen, cloudburst.DataSpec{Records: units, Files: 1},
			map[string]*cloudburst.MemStore{"cloud": mem})
		if err != nil {
			return err
		}
		data, err := store.ReadAll(mem, metas[0].Name)
		if err != nil {
			return err
		}
		engine := cloudburst.NewEngine(app, cloudburst.EngineOptions{GroupUnits: groupUnits})
		red := app.NewReduction()
		ns, _, err := timeBox(box, func() error {
			_, err := engine.ProcessChunk(red, data)
			return err
		})
		if err != nil {
			return err
		}
		out[e.metric] = ns / units
	}

	// Eight 600 KB rank vectors through the parallel merger, with no
	// emulated cost per byte: the real CPU of a global reduction. The
	// objects are built outside the timed span.
	const objects = 8
	objBytes := pagerank.NewReduction().Bytes()
	var elapsed time.Duration
	rounds := 0
	for elapsed < box {
		objs := make([]gr.Reduction, objects)
		for i := range objs {
			objs[i] = pagerank.NewReduction()
		}
		start := time.Now()
		m := gr.NewMerger(pagerank, gr.MergerOptions{Mode: gr.MergeParallel, Workers: objects})
		for _, o := range objs {
			if err := m.Add(o); err != nil {
				return err
			}
		}
		if _, _, err := m.Finish(); err != nil {
			return err
		}
		elapsed += time.Since(start)
		rounds++
	}
	out["gr.merge_pagerank_ns_byte"] = float64(elapsed.Nanoseconds()) / float64(rounds*objects*objBytes)

	red := pagerank.NewReduction()
	encoded := 0
	ns, _, err := timeBox(box, func() error {
		enc, err := gr.EncodeReduction(red)
		if err != nil {
			return err
		}
		encoded = len(enc)
		_, err = gr.DecodeReduction(pagerank, enc)
		return err
	})
	out["gr.codec_pagerank_mb_s"] = mbPerS(encoded, ns)
	return err
}

func microNetsim(box time.Duration, out map[string]float64) error {
	// One emulated second at scale 0.001 is a 1 ms wall sleep; what the
	// sleep takes beyond that is the timer noise in every paced number.
	clk := netsim.Scaled(0.001)
	var over []float64
	for start := time.Now(); time.Since(start) < box; {
		t0 := time.Now()
		clk.Sleep(time.Second)
		over = append(over, float64(time.Since(t0)-time.Millisecond)/float64(time.Microsecond))
	}
	sort.Float64s(over)
	out["netsim.sleep_overshoot_us"] = over[len(over)/2]

	bucket := netsim.NewBucket(netsim.Real(), 1e15, 1e15) // never runs dry: the bookkeeping alone
	ns, _, err := timeBox(box, func() error {
		bucket.Take(1024)
		return nil
	})
	out["netsim.bucket_take_ns"] = ns
	return err
}
