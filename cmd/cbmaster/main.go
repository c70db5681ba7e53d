// Command cbmaster runs one cluster's master node: it registers with
// the head, keeps the cluster's job pool topped up on demand, serves
// jobs to slaves, combines their reduction objects, and ships the
// cluster result.
//
//	cbmaster -site local -head headhost:7070 -listen :7071 \
//	         -app knn -params k=1000,dims=3 -slaves 4 -cores 32
package main

import (
	"flag"
	"fmt"
	"net"
	"os"

	_ "cloudburst/internal/apps" // register built-in applications
	"cloudburst/internal/cli"
	"cloudburst/internal/cluster"
	"cloudburst/internal/gr"
	"cloudburst/internal/netsim"
	"cloudburst/internal/store"
)

func main() {
	var (
		site     = flag.String("site", "", "this cluster's site name (required)")
		headAddr = flag.String("head", "", "head node address (required)")
		listen   = flag.String("listen", ":7071", "listen address for slaves")
		appName  = flag.String("app", "", "application name (required)")
		params   = flag.String("params", "", "application parameters")
		slaves   = flag.Int("slaves", 1, "slave worker connections expected (sum of slave -cores)")
		cores    = flag.Int("cores", 0, "total cores (reported to the head; defaults to -slaves)")
		batch    = flag.Int("batch", 0, "jobs per head request (default 2x cores)")
		hints    = flag.Int("hint-depth", 0, "piggyback up to this many likely-next jobs as prefetch hints on every grant (0 disables)")
		beat     = flag.Duration("heartbeat", 0, "heartbeat the head and declare silent slaves lost after 3 missed intervals (0 disables)")
		buffer   = flag.String("buffer", "", "site burst-buffer address (a cbstore -mode buffer daemon) to stage hinted chunks into (0 disables)")
		stageMB  = flag.Int64("stage-budget-mb", 0, "cap on bytes staged into the buffer over the run (0 = unlimited)")
		syncMode = flag.String("sync-mode", "", "global-reduction sync: streamed-parallel (default) or monolithic (must match the head's)")
		quiet    = flag.Bool("q", false, "suppress progress logging")
	)
	flag.Parse()
	if *site == "" || *headAddr == "" || *appName == "" {
		fatal(fmt.Errorf("-site, -head, and -app are required"))
	}
	if *cores == 0 {
		*cores = *slaves
	}

	p, err := cli.ParseParams(*params)
	if err != nil {
		fatal(err)
	}
	app, err := gr.New(*appName, p)
	if err != nil {
		fatal(err)
	}
	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = nil
	}
	masterCfg := cluster.MasterConfig{
		Site: *site, App: app, Cores: *cores, Slaves: *slaves, Batch: *batch,
		HintDepth:         *hints,
		Clock:             netsim.Real(),
		Logf:              logf,
		HeartbeatInterval: *beat,
		StageBudget:       *stageMB << 20,
		SyncMode:          *syncMode,
	}
	if *buffer != "" {
		bc := store.NewClient(*buffer, nil)
		defer bc.Close()
		masterCfg.Buffer = bc
	}
	master, err := cluster.NewMaster(masterCfg)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("cbmaster: site %s serving slaves on %s, head %s\n", *site, ln.Addr(), *headAddr)
	final, err := master.Run(*headAddr, net.Dial, ln)
	if err != nil {
		fatal(err)
	}
	if s, ok := app.(gr.Summarizer); ok {
		if digest, err := s.Summarize(final); err == nil {
			fmt.Println("cbmaster: final result:", digest)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cbmaster:", err)
	os.Exit(1)
}
