package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"fillvoid/internal/cluster"
	"fillvoid/internal/core"
	"fillvoid/internal/interp"
	"fillvoid/internal/recon"
	"fillvoid/internal/server"
	"fillvoid/internal/telemetry"
)

// cmdServe runs the HTTP reconstruction service: the model (if any) is
// loaded once, query plans are cached per (cloud, grid), and requests
// are answered until SIGINT/SIGTERM triggers a graceful drain.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "listen address")
	model := fs.String("model", "", "trained model path; registers the \"fcnn\" method when set")
	workers := fs.Int("workers", 0, "engine worker goroutines per reconstruction (0 = all cores)")
	maxConcurrent := fs.Int("max-concurrent", 0, "max simultaneously executing reconstructions (0 = 2x cores)")
	maxQueue := fs.Int("max-queue", 0, "max requests waiting for a slot before 429 (0 = 64)")
	queueTimeout := fs.Duration("queue-timeout", 0, "max wait for an execution slot before 503 (0 = 5s)")
	requestTimeout := fs.Duration("request-timeout", 0, "per-reconstruction deadline before 504 (0 = 60s)")
	planCache := fs.Int("plan-cache", 0, "plan LRU capacity in (cloud, grid) entries (0 = 16)")
	cloudCache := fs.Int("cloud-cache", 0, "uploaded-cloud LRU capacity (0 = 32)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "max graceful-shutdown drain before aborting in-flight work")
	peers := fs.String("peers", "", "cluster membership as id=url,id=url,... (includes this replica; empty = standalone)")
	replicaID := fs.String("replica-id", "", "this replica's id within -peers (required with -peers)")
	shards := fs.Int("shards", 0, "sub-box shards per fanned-out query (0 = one per replica)")
	shardThreshold := fs.Int("shard-threshold", 0, "min box-region points before a query fans out across replicas (0 = 4096)")
	hedgeAfter := fs.Duration("hedge-after", 0, "fixed delay before hedging a slow sub-query (0 = adaptive p95)")
	jobsDir := fs.String("jobs-dir", "", "job-state directory; enables the async training service (POST /v1/train)")
	trainWorkers := fs.Int("train-workers", 0, "training worker pool size (0 = 1)")
	trainQueue := fs.Int("train-queue", 0, "max queued training jobs before 429 (0 = 16)")
	trainCheckpointEvery := fs.Int("train-checkpoint-every", 0, "default epochs between job checkpoints (0 = 25)")
	modelCache := fs.Int("model-cache", 0, "decoded stored-model LRU capacity (0 = 8)")
	progressiveChunks := fs.Int("progressive-chunks", 0, "default chunk count for progressive reconstructions (0 = 8)")
	tf := telemetry.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	_, finish, err := startTelemetry(fs.Name(), tf, &err)
	if err != nil {
		return err
	}
	defer finish()

	reg := interp.StandardRegistry(*workers)
	if *model != "" {
		r, err := core.LoadFile(*model)
		if err != nil {
			return fmt.Errorf("loading model: %w", err)
		}
		reg.RegisterMethod(r)
	} else {
		reg.Register("fcnn", func() (recon.Reconstructor, error) {
			return nil, fmt.Errorf("no model loaded (restart with -model)")
		})
	}

	var cl *cluster.Cluster
	if *peers != "" {
		if *replicaID == "" {
			return fmt.Errorf("-peers requires -replica-id (which entry is this process?)")
		}
		members, err := cluster.ParsePeers(*peers)
		if err != nil {
			return err
		}
		cl, err = cluster.New(cluster.Config{
			Self:           *replicaID,
			Members:        members,
			Shards:         *shards,
			ShardThreshold: *shardThreshold,
			HedgeAfter:     *hedgeAfter,
		})
		if err != nil {
			return err
		}
	}

	srv, err := server.New(server.Config{
		Registry:       reg,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		RequestTimeout: *requestTimeout,
		PlanCacheSize:  *planCache,
		CloudCacheSize: *cloudCache,
		Cluster:        cl,

		JobsDir:              *jobsDir,
		TrainWorkers:         *trainWorkers,
		TrainQueue:           *trainQueue,
		TrainCheckpointEvery: *trainCheckpointEvery,
		ModelCacheSize:       *modelCache,
		ProgressiveChunks:    *progressiveChunks,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(*addr); err != nil {
		return err
	}
	if cl != nil {
		fmt.Printf("fillvoid serve: replica %s of %d (shards=%d)\n",
			cl.Self().ID, len(cl.Members()), cl.StatusSnapshot().Shards)
	}
	fmt.Printf("fillvoid serve: listening on http://%s (methods: %v)\n", srv.Addr(), reg.Names())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Printf("fillvoid serve: %s received, draining in-flight requests...\n", s)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("graceful shutdown: %w", err)
	}
	fmt.Println("fillvoid serve: drained, bye")
	return nil
}
