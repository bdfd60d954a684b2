// Command blogserved serves the blogclusters query surface over HTTP:
// one long-running Engine session (the paper's BlogScope deployment
// shape — load the corpus once, answer many analysis queries) behind
// the production plumbing of internal/server: admission control,
// per-request deadlines, a single-flight LRU response cache,
// structured access logs and debug stats.
//
// Usage:
//
//	blogserved -demo                                # synthetic news week
//	blogserved -input posts.jsonl -addr :8080
//	blogserved -demo -index disk -max-inflight 128 -cache-bytes 33554432
//	blogserved -demo -breaker-cooldown 5s
//	blogserved -demo -pprof localhost:6060          # profiling sidecar
//
// Sharded serving (internal/shard): the same binary runs all three
// roles. A shard server is an ordinary blogserved holding a contiguous
// interval slice of the corpus; a coordinator fans queries out over
// shard servers (remote ones, or in-process ones reached without a
// socket) and serves the merged answers on the identical HTTP surface:
//
//	blogserved -demo -intervals 0:4 -addr :8081     # shard server 0
//	blogserved -demo -intervals 4:7 -addr :8082     # shard server 1
//	blogserved -shards localhost:8081,localhost:8082 -addr :8080
//	blogserved -demo -shard-count 2                 # in-process shards
//
// The listener comes up immediately; the corpus loads in the
// background and /readyz flips to 200 when the session is attached,
// so orchestrators can health-check during a slow load. If the load
// fails, the process stays up serving 503s with the open error
// surfaced on /readyz rather than exiting into a crash loop. SIGINT or
// SIGTERM drains: the listener stops accepting, in-flight requests
// finish (up to -drain-timeout), then the session closes (canceling
// any still-running builds and removing a temp disk segment). See
// README.md for the endpoint reference and curl examples.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	blogclusters "repro"
	"repro/internal/cli"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("blogserved: ")

	var shared cli.EngineFlags
	shared.Register(flag.CommandLine)
	// A served session is the only one that takes pushes, so the
	// compaction threshold is blogserved's flag alone.
	flag.IntVar(&shared.IndexCompactAfter, "index-compact-after", 0, "with -index disk only: fold pushed delta segments into the base once more than this many accumulate; 0 = default, negative = never compact")
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		maxInflight  = flag.Int("max-inflight", server.DefaultMaxInflight, "max concurrently admitted /v1 queries; overflow gets 429 + Retry-After")
		cacheBytes   = flag.Int("cache-bytes", server.DefaultCacheBytes, "response-cache budget in bytes; negative disables caching")
		reqTimeout   = flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request query deadline")
		breakerCool  = flag.Duration("breaker-cooldown", server.DefaultBreakerCooldown, "how long a tripped per-route circuit breaker sheds before probing")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		readHeaderTO = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: drop clients that stall mid-header (slowloris)")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: close keep-alive connections idle this long")
		gap          = flag.Int("gap", 1, "gap g for the session's default cluster graph")
		theta        = flag.Float64("theta", 0.1, "minimum affinity for a cluster-graph edge")
		shardList    = flag.String("shards", "", "comma-separated shard server addresses in interval order (host:port,...); serve as their scatter-gather coordinator instead of loading a corpus")
		shardCount   = flag.Int("shard-count", 0, "split the corpus into N in-process shard servers behind a coordinator (single-binary sharded serving)")
		shardWait    = flag.Duration("shards-wait", time.Minute, "how long the coordinator waits for every shard server's /readyz at startup")
		pprofAddr    = flag.String("pprof", "", "serve net/http/pprof on this extra listener (e.g. localhost:6060); empty disables profiling")
	)
	flag.Parse()

	var src blogclusters.Source
	var err error
	switch {
	case *shardList != "" && *shardCount > 0:
		log.Fatal("pass either -shards or -shard-count, not both")
	case *shardList != "":
		// The corpus lives on the shard servers; a coordinator loads
		// nothing locally.
		var set []string
		flag.Visit(func(f *flag.Flag) {
			if shardServerFlags[f.Name] {
				set = append(set, "-"+f.Name)
			}
		})
		if len(set) > 0 {
			log.Fatalf("-shards is a coordinator: the corpus is loaded and indexed by the shard servers, drop %s", strings.Join(set, ", "))
		}
	case *shardCount > 0:
		// In-process sharding materializes the collection to split it;
		// the loader goroutine does the work, validate the flags here.
		if err := shared.Validate(); err != nil {
			log.Fatal(err)
		}
		if shared.Intervals != "" {
			log.Fatal("-shard-count splits the whole corpus; drop -intervals")
		}
		if shared.IndexFile != "" {
			log.Fatal("-shard-count builds one segment per shard, so one -indexfile path would be shared; drop -indexfile")
		}
	default:
		src, err = shared.Source()
		if err != nil {
			log.Fatal(err)
		}
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	if *pprofAddr != "" {
		stopPprof, err := cli.StartPprof(*pprofAddr, logger)
		if err != nil {
			log.Fatal(err)
		}
		defer stopPprof()
	}
	cfg := server.Config{
		MaxInflight:     *maxInflight,
		CacheBytes:      *cacheBytes,
		RequestTimeout:  *reqTimeout,
		BreakerCooldown: *breakerCool,
		Logger:          logger,
	}
	srv := server.New(cfg)

	ctx, stop := cli.SignalContext(context.Background())

	// Load the corpus in the background so the listener (and /healthz,
	// /readyz probes) come up immediately; queries 503 until the
	// session attaches. A signal during the load cancels Open. Every
	// exit path joins loadDone before closing the engine: SetEngine
	// must not race past closeEngine, or a just-attached session (and
	// its temp disk segment) would leak.
	engineErr := make(chan error, 1)
	loadDone := make(chan struct{})
	go func() {
		defer close(loadDone)
		graph := blogclusters.GraphOptions{Gap: *gap, Theta: *theta}
		copts := shard.Options{Graph: graph}
		var sess server.Session
		var err error
		switch {
		case *shardList != "":
			sess, err = openRemoteCoordinator(ctx, *shardList, *shardWait, copts, logger)
		case *shardCount > 0:
			var col *blogclusters.Collection
			if col, err = shared.Collection(); err == nil {
				// Every in-process shard server takes this server's
				// config; its access log carries a shard attribute.
				sess, err = server.OpenInProcess(ctx, col, *shardCount, cfg, copts,
					shared.Options(blogclusters.ClusterOptions{}, graph)...)
			}
		default:
			sess, err = blogclusters.Open(ctx, src,
				shared.Options(blogclusters.ClusterOptions{}, graph)...)
		}
		if err != nil {
			engineErr <- err
			return
		}
		srv.SetEngine(sess)
		logger.Info("session ready")
	}()

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slowloris/idle hygiene: a client that never finishes its
		// headers or parks a keep-alive connection must not hold a file
		// descriptor forever. Per-request work is already bounded by the
		// admission semaphore and -request-timeout, so these only govern
		// the connection lifecycle around requests.
		ReadHeaderTimeout: *readHeaderTO,
		IdleTimeout:       *idleTimeout,
	}

	serveErr := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		serveErr <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-serveErr:
		// Listener died before any signal (bad addr, port in use).
		stop()
		<-loadDone
		closeEngine(srv, logger)
		log.Fatal(err)
	case err := <-engineErr:
		// A signal during the load cancels Open; that is the graceful
		// path (fall through to the drain), not a startup failure. The
		// select races with ctx.Done when both are ready, so the branch
		// must distinguish the two itself. A real open failure does NOT
		// kill the process: the server keeps serving — /healthz 200,
		// /readyz failing with this error in the body, /v1 503s — so
		// operators can read the diagnosis off the running instance
		// instead of spelunking restart loops. A signal still exits.
		if ctx.Err() == nil || !errors.Is(err, context.Canceled) {
			srv.SetOpenError(err)
			logger.Error("engine open failed; serving 503s", "err", err)
			<-ctx.Done()
		}
	case <-ctx.Done():
	}

	// Graceful drain: release the signal registration first so a
	// second SIGINT/SIGTERM force-quits, then stop accepting and let
	// in-flight requests finish, then close the session.
	stop()
	logger.Info("draining", "timeout", drainTimeout.String())
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		logger.Error("drain incomplete", "err", err)
		httpSrv.Close()
	}
	// The canceled ctx aborts a still-running Open at its next poll;
	// wait for it so the engine cannot attach after the close below.
	<-loadDone
	closeEngine(srv, logger)
	logger.Info("drained; exiting")
}

// shardServerFlags select, slice or index a corpus: on a -shards
// coordinator they would configure nothing, so it rejects them.
var shardServerFlags = map[string]bool{
	"demo": true, "input": true, "intervals": true,
	"index": true, "indexcache": true, "indexfile": true, "index-compact-after": true,
}

// openRemoteCoordinator assembles a shard.Coordinator over the shard
// servers listed in spec (comma-separated, interval order), waiting up
// to wait for every shard's /readyz so a fleet coming up together
// settles into a working coordinator without ordering ceremony.
func openRemoteCoordinator(ctx context.Context, spec string, wait time.Duration, copts shard.Options, logger *slog.Logger) (*shard.Coordinator, error) {
	var addrs []string
	for _, a := range strings.Split(spec, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("-shards lists no addresses")
	}
	waitCtx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	backends := make([]shard.Backend, len(addrs))
	for i, addr := range addrs {
		b, err := server.NewClient(addr, nil)
		if err != nil {
			return nil, err
		}
		if err := b.WaitReady(waitCtx); err != nil {
			return nil, err
		}
		backends[i] = b
		logger.Info("shard ready", "shard", i, "addr", addr)
	}
	return shard.NewCoordinator(ctx, backends, copts)
}

// closeEngine closes the session if it ever attached, logging (not
// dying on) close errors — at this point the process is exiting and
// the only useful action is to report.
func closeEngine(srv *server.Server, logger *slog.Logger) {
	sess := srv.Session()
	if sess == nil {
		return
	}
	closer, ok := sess.(interface{ Close() error })
	if !ok {
		return
	}
	if err := closer.Close(); err != nil && !errors.Is(err, context.Canceled) {
		logger.Error("session close", "err", err)
	}
}
