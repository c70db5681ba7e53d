package main

import (
	"time"

	"cloudburst/internal/netsim"
)

// The calibrated environment, copied here as literals from
// internal/bench (DefaultSim, KNNSpec/KMeansSpec/PageRankSpec,
// AWS2011) at the commit that defined this benchmark. Nothing in this
// file is read from the program under test, so a changed default or a
// rewritten experiment harness cannot change a workload.
//
// Bandwidths are bytes per emulated second, ~10,000x below the paper's
// hardware, matching the ~10,000x dataset scale-down (120 GB -> 12 MB).

var (
	linkLocalDisk = netsim.Link{
		Name: "local-disk", Latency: 4 * time.Millisecond,
		PerStream: 3 << 10, Aggregate: 160 << 10,
	}
	linkS3Internal = netsim.Link{
		Name: "s3-internal", Latency: 20 * time.Millisecond,
		PerStream: 600, Aggregate: 208 << 10,
	}
	linkS3External = netsim.Link{
		Name: "s3-external", Latency: 60 * time.Millisecond,
		PerStream: 160, Aggregate: 30 << 10,
	}
	linkLocalFromCloud = netsim.Link{
		Name: "local-from-cloud", Latency: 60 * time.Millisecond,
		PerStream: 160, Aggregate: 30 << 10,
	}
	linkHeadWAN = netsim.Link{
		Name: "head-wan", Latency: 40 * time.Millisecond,
		PerStream: 15 << 10, Burst: 8 << 10,
	}
	linkHeadLAN = netsim.Link{
		Name: "head-lan", Latency: 500 * time.Microsecond,
		PerStream: 10 << 20,
	}
	linkSlaveLAN = netsim.Link{
		Name: "slave-lan", Latency: 200 * time.Microsecond,
		PerStream: 20 << 20,
	}
)

const (
	s3EgressCap    = 208 << 10 // bytes per emulated second, whole service
	localEgressCap = 160 << 10
	localSeek      = 12 * time.Millisecond
	groupUnits     = 4096

	// Paper-faithful retrieval: 8 threads of 2 KiB ranges per chunk.
	pacedFetchThreads = 8
	pacedFetchRange   = 2 << 10

	// Today's full retrieval stack, as pagerank-iter turns it on.
	tierBytes     = 256 << 20 // per-site ChunkCache and SiteBuffer capacity
	hintDepth     = 4
	mergeCostByte = time.Microsecond
)

// AWS prices of late 2011 (us-east-1, m1.large), billed per second so
// that the bill moves with the makespan instead of in whole hours.
const (
	usdPerInstanceHour = 0.34
	coresPerInstance   = 2
	usdPerEgressGiB    = 0.12
	usdPer10kGets      = 0.01
	getBytes           = 256 << 10
	paperByteScale     = 10_000 // data is 10,000x below paper scale
)

// cloudCostUSD prices one run. s3Bytes and egressBytes are zero on a
// workload whose stores are not S3 (hostpath-knn serves both sites
// from loopback daemons), which leaves instance time alone.
func cloudCostUSD(cloudCores int, makespanS float64, egressBytes, s3Bytes int64) float64 {
	instances := float64(cloudCores) / coresPerInstance
	usd := instances * makespanS * usdPerInstanceHour / 3600
	usd += float64(egressBytes) * paperByteScale / (1 << 30) * usdPerEgressGiB
	usd += float64(s3Bytes) * paperByteScale / getBytes / 10_000 * usdPer10kGets
	return usd
}
