package chunk_test

import (
	"testing"

	"cloudburst/internal/chunk"
	"cloudburst/internal/store"
	"cloudburst/internal/workload"
)

// zeroGen is a generator of all-zero records: Build only reads file
// sizes, so the content never matters.
type zeroGen int

func (g zeroGen) RecordSize() int { return int(g) }
func (zeroGen) Gen(int64, []byte) {}

// geometry materializes records of rs bytes over files files the way
// the benchmark workloads do, and returns the file list with the
// chunk size that targets jobs jobs (total bytes / jobs, rounded down
// to whole records).
func geometry(t *testing.T, records int64, rs, files, jobs int) (map[string]store.Store, []chunk.FileMeta, int64) {
	t.Helper()
	mem := map[string]*store.Mem{"local": store.NewMem(), "cloud": store.NewMem()}
	metas, err := workload.Materialize(zeroGen(rs), workload.Spec{Records: records, Files: files, LocalFiles: files / 2}, mem)
	if err != nil {
		t.Fatal(err)
	}
	chunkBytes := records * int64(rs) / int64(jobs)
	chunkBytes -= chunkBytes % int64(rs)
	return map[string]store.Store{"local": mem["local"], "cloud": mem["cloud"]}, metas, chunkBytes
}

// oneFile is a single file of size bytes at site "s".
func oneFile(size int64) (map[string]store.Store, []chunk.FileMeta) {
	m := store.NewMem()
	m.Put("f", make([]byte, size))
	return map[string]store.Store{"s": m}, []chunk.FileMeta{{Name: "f", Site: "s"}}
}

// TestBuildFoldsRuntRemainder pins Build's remainder rule: a file's
// trailing remainder of at most a tenth of ChunkBytes joins the last
// chunk, a larger one stays its own chunk, and the benchmark's
// pagerank-iter and kmeans-hybrid geometries get exactly the job
// counts they ask for instead of one 7-record runt per file.
func TestBuildFoldsRuntRemainder(t *testing.T) {
	const rs = 10
	cases := []struct {
		name       string
		size       int64 // one file's bytes
		chunkBytes int64
		chunks     int
		last       int64 // the last chunk's length
	}{
		{"remainder of exactly a tenth folds in", 1000 + 10, 100, 10, 110},
		{"remainder under a tenth folds in", 2000 + 10, 200, 10, 210},
		{"remainder over a tenth stays", 1000 + 20, 100, 11, 20},
		{"a third stays", 100, 30, 4, 10},
		{"exact multiple", 1000, 100, 10, 100},
		{"smaller than one chunk", 40, 100, 1, 40},
		{"one record", 10, 100, 1, 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			stores, files := oneFile(c.size)
			idx, err := chunk.Build(stores, files, chunk.BuildOptions{RecordSize: rs, ChunkBytes: c.chunkBytes})
			if err != nil {
				t.Fatal(err)
			}
			if err := idx.Validate(); err != nil {
				t.Fatal(err)
			}
			if len(idx.Chunks) != c.chunks {
				t.Fatalf("chunks = %d, want %d: %+v", len(idx.Chunks), c.chunks, idx.Chunks)
			}
			last := idx.Chunks[len(idx.Chunks)-1]
			if last.Length != c.last || last.Offset+last.Length != c.size {
				t.Fatalf("last chunk %+v, want length %d ending at %d", last, c.last, c.size)
			}
			if 10*last.Length > 11*c.chunkBytes {
				t.Fatalf("last chunk %d bytes exceeds 1.1×%d", last.Length, c.chunkBytes)
			}
		})
	}

	// The benchmark workloads' geometries: pagerank-iter's link graph
	// (75000 pages of out-degree 10–16, 8-byte edges) over 32 files in
	// 480 jobs, and kmeans-hybrid's 150000 8-dim points over 32 files
	// in 960 jobs. Without the rule each file ends in a runt of a few
	// records: 512 and 992 chunks.
	graph := workload.Edges{Pages: 75000, MinDeg: 10, MaxDeg: 16, Seed: 1}
	workloads := []struct {
		name    string
		records int64
		rs      int
		jobs    int
	}{
		{"pagerank-iter", graph.TotalEdges(), graph.RecordSize(), 480},
		{"kmeans-hybrid", 150_000, 32, 960},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			stores, files, chunkBytes := geometry(t, w.records, w.rs, 32, w.jobs)
			idx, err := chunk.Build(stores, files, chunk.BuildOptions{RecordSize: int32(w.rs), ChunkBytes: chunkBytes})
			if err != nil {
				t.Fatal(err)
			}
			if len(idx.Chunks) != w.jobs {
				t.Fatalf("chunks = %d, want %d", len(idx.Chunks), w.jobs)
			}
			if idx.TotalUnits() != w.records {
				t.Fatalf("units = %d, want %d", idx.TotalUnits(), w.records)
			}
			for _, c := range idx.Chunks {
				if c.Length < chunkBytes || 10*c.Length > 11*chunkBytes {
					t.Fatalf("chunk %+v outside [%d, 1.1×%d]", c, chunkBytes, chunkBytes)
				}
			}
		})
	}
}
