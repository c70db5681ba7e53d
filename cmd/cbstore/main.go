// Command cbstore serves a directory of data files over the store
// protocol, so slaves at other sites can retrieve stolen jobs' chunks
// with ranged reads. It stands in for the storage node's export (or an
// S3 endpoint) in multi-node deployments.
//
//	cbstore -dir ./data/local -listen :7075
//
// With -mode buffer it instead serves a site-shared burst buffer
// fronting another store server: reads fault chunks in from the
// backing store under singleflight (so N slaves missing the same chunk
// cost one backing fetch), answer with the buffer-hit flag, and accept
// KindStage requests from the site's master to pre-pull upcoming
// chunks.
//
//	cbstore -mode buffer -backing s3host:7075 -buffer-mb 512 -listen :7076
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"

	"cloudburst/internal/cli/debugsrv"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
)

func main() {
	var (
		dir      = flag.String("dir", "data", "directory to serve (mode store)")
		listen   = flag.String("listen", ":7075", "listen address")
		mode     = flag.String("mode", "store", "store (serve -dir) or buffer (front -backing with a burst buffer)")
		backing  = flag.String("backing", "", "backing store server address (mode buffer)")
		site     = flag.String("site", "cloud", "site name the buffer belongs to (mode buffer)")
		bufferMB = flag.Int64("buffer-mb", 512, "buffer capacity in MiB (mode buffer)")
		threads  = flag.Int("threads", 0, "concurrent range readers per backing fetch (0 = default; mode buffer)")
		autotune = flag.Bool("autotune", false, "AIMD-tune the site-wide backing fetch concurrency (mode buffer)")
		debug    = debugsrv.Flag()
	)
	flag.Parse()
	if ln, err := debugsrv.Serve(*debug); err != nil {
		fatal(err)
	} else if ln != nil {
		fmt.Fprintf(os.Stderr, "cbstore: pprof on http://%s/debug/pprof/\n", ln.Addr())
	}

	var served store.Store
	var closer func()
	switch *mode {
	case "store":
		st := store.NewLocal(*dir)
		served = st
		closer = func() { st.Close() }
	case "buffer":
		if *backing == "" {
			fatal(fmt.Errorf("-mode buffer needs -backing"))
		}
		client := store.NewClient(*backing, nil)
		fetch := store.DefaultFetchOptions()
		fetch.Clock = netsim.Real()
		if *threads > 0 {
			fetch.Threads = *threads
		}
		buf := store.NewSiteBuffer(store.SiteBufferConfig{
			Site: *site, Backing: client, Capacity: *bufferMB << 20,
			Fetch: fetch, Autotune: *autotune,
		})
		served = buf
		closer = func() {
			buf.Drain()
			client.Close()
		}
	default:
		fatal(fmt.Errorf("unknown -mode %q", *mode))
	}
	defer closer()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	srv := store.Serve(ln, served)
	if *mode == "buffer" {
		fmt.Printf("cbstore: buffering %s (%d MiB) on %s\n", *backing, *bufferMB, srv.Addr())
	} else {
		fmt.Printf("cbstore: serving %s on %s\n", *dir, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	srv.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbstore:", err)
	os.Exit(1)
}
