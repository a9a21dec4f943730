// Command tuserve runs a TimeUnion server: the storage engine on two
// directory-backed storage tiers behind the HTTP batch API (insert via
// slow/fast/group paths, query via tag selectors).
//
//	tuserve -data ./data -listen :9201 -retention 72h
//
// With -replica the server opens the same fast/ and slow/ directories
// read-only and serves queries from the writer's published manifests and
// catalog, polled every -refresh. Any number of replicas can run against
// one live writer; writes against a replica return 403.
//
//	tuserve -data ./data -listen :9202 -replica -refresh 1s
//
// Endpoints (JSON bodies, see internal/remote):
//
//	POST /api/v1/write        {"timeseries":[{"labels":{...},"samples":[{"t":..,"v":..}]}]}
//	POST /api/v1/write_fast   {"entries":[{"id":123,"samples":[...]}]}
//	POST /api/v1/write_group  {"group_tags":{...},"unique_tags":[...],"times":[...],"values":[[...]]}
//	POST /api/v1/query        {"min_t":..,"max_t":..,"matchers":[{"type":"=","name":"metric","value":"cpu"}]}
//
// Operational endpoints:
//
//	GET /metrics         Prometheus text exposition of every storage layer
//	GET /healthz         liveness probe
//	GET /api/v1/events   NDJSON operational event journal (tuctl events)
//	GET /api/v1/lsmtree  live LSM table inventory (tuctl tree)
//	/debug/pprof/        profiling (only with -debug)
//
// Queries slower than -tracelog dump their per-stage span tree to the log.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"time"

	"timeunion/internal/cloud"
	"timeunion/internal/core"
	"timeunion/internal/remote"
)

func main() {
	var (
		dataDir   = flag.String("data", "./data", "data directory (fast/, slow/, local/)")
		listen    = flag.String("listen", ":9201", "HTTP listen address")
		retention = flag.Duration("retention", 0, "drop data older than this (0 = keep forever)")
		fastLimit = flag.Int64("fastlimit", 0, "fast-tier byte budget; a budget > 0 runs dynamic size control (Algorithm 1), 0 = unlimited")
		debug     = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/")
		traceLog  = flag.Duration("tracelog", 0, "log the span tree of queries slower than this (0 = off)")
		replica   = flag.Bool("replica", false, "serve as a read replica of the writer sharing -data")
		refresh   = flag.Duration("refresh", time.Second, "replica manifest/catalog poll interval")
	)
	flag.Parse()

	fast, err := cloud.NewDirStore(filepath.Join(*dataDir, "fast"), cloud.TierBlock, cloud.EBSModel(0))
	if err != nil {
		log.Fatal(err)
	}
	slow, err := cloud.NewDirStore(filepath.Join(*dataDir, "slow"), cloud.TierObject, cloud.S3Model(0))
	if err != nil {
		log.Fatal(err)
	}
	var db *core.DB
	if *replica {
		db, err = core.OpenReplica(core.Options{
			Fast:                   fast,
			Slow:                   slow,
			ReplicaRefreshInterval: *refresh,
		})
	} else {
		db, err = core.Open(core.Options{
			Dir:       filepath.Join(*dataDir, "local"),
			Fast:      fast,
			Slow:      slow,
			FastLimit: *fastLimit,
		})
	}
	if err != nil {
		log.Fatal(err)
	}

	// Writers always run maintenance: beyond retention (only when set) it
	// purges the WAL and republishes the series catalog read replicas
	// resolve series through.
	if !*replica {
		m := db.StartMaintenance(retention.Milliseconds(), time.Minute)
		defer m.Stop()
	}

	api := remote.NewServer(&remote.TimeUnionBackend{DB: db})
	handler := remote.NewOpsHandler(api, remote.OpsConfig{
		Metrics:      db.Metrics(),
		Journal:      db.Journal(),
		Tree:         db.TreeSnapshot,
		Debug:        *debug,
		SlowQueryLog: *traceLog,
		Logf:         log.Printf,
	})
	srv := &http.Server{Addr: *listen, Handler: handler}
	go func() {
		log.Printf("tuserve listening on %s (data: %s)", *listen, *dataDir)
		if err := srv.ListenAndServe(); err != http.ErrServerClosed {
			log.Fatal(err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("shutting down: flushing open chunks...")
	_ = srv.Close()
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
}
