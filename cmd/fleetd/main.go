// Command fleetd runs the fleet host: a long-running service multiplexing
// many reconfigurable systems — one core.System per tenant — over a shared
// batched scheduler, exposed through the HTTP/JSON control plane
// (internal/fleet.API):
//
//	POST   /systems              spawn a tenant from a SpawnSpec
//	GET    /systems[/{id}]       list / status
//	DELETE /systems/{id}         kill
//	POST   /systems/{id}/inject  env, procfail, procrepair, storage
//	GET    /systems/{id}/metrics | /journal | /traces | /trace/{tid}
//	GET    /presets, /stats
//
// Usage:
//
//	fleetd -addr 127.0.0.1:8080   # serve until SIGINT/SIGTERM
//	fleetd -data /var/lib/fleetd  # durable: recover on boot
//
// With -data, the host journals a fleet manifest — every SpawnSpec, every
// acked injection, every kill, periodic per-tenant checkpoints — to
// CRC-checksummed replicated stable storage under the directory. A restarted
// fleetd (after SIGTERM or kill -9 alike) re-spawns every running tenant and
// replays it to its pre-crash frame, byte-identical to an uninterrupted run;
// a tenant at rest is replayed on the first read of its telemetry. SIGTERM
// drains gracefully: the control plane answers 503, a final checkpoint
// commits, then the process exits. SIGINT hard-stops without the final
// checkpoint (recovery falls back to the last periodic one, like a crash).
//
// fleetd only serves. Its throughput, control-plane latency, recovery time
// and heap per tenant are measured by the benchmark (benchmark/README.md),
// and a seeded chaos storm is a one-arm campaign -matrix run (cmd/README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/stable"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fleetd:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("fleetd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "control-plane listen address")
	shards := fs.Int("shards", 0, "scheduler shard workers (default GOMAXPROCS)")
	batch := fs.Int("batch", 0, "frames per tenant per sweep (default 8)")
	dataDir := fs.String("data", "", "durable mode: journal the fleet manifest under this directory and recover from it on boot")
	retain := fs.Int64("retain-frames", 0, "default journal/trace retention horizon in frames for spawned tenants (0 = unbounded)")
	ckptEvery := fs.Int64("checkpoint-every", 0, "per-tenant checkpoint cadence in frames (default 64)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := fleet.Config{Shards: *shards, Batch: *batch, RetainFrames: *retain, CheckpointEvery: *ckptEvery}
	return serveFleet(out, cfg, *addr, *dataDir)
}

// mountManifest opens (or initializes) the durable manifest store: two file
// replicas under dir, CRC-framed and healed by read repair. kill -9 safe by
// construction — records stage to temp files and rename into place, and a
// record torn anyway is caught by its checksum and converged past.
func mountManifest(dir string) (*stable.Store, error) {
	var media []stable.Medium
	for _, rep := range []string{"r0", "r1"} {
		m, err := stable.NewFileMedium(filepath.Join(dir, rep))
		if err != nil {
			return nil, fmt.Errorf("opening manifest replica %s: %w", rep, err)
		}
		media = append(media, m)
	}
	return stable.NewHardened(stable.MountReplicatedStore(media...)), nil
}

// serveFleet runs the host until SIGINT (hard stop) or SIGTERM (graceful
// drain). With a data directory it recovers the pre-crash fleet first.
func serveFleet(out io.Writer, cfg fleet.Config, addr, dataDir string) error {
	var host *fleet.Host
	if dataDir != "" {
		st, err := mountManifest(dataDir)
		if err != nil {
			return err
		}
		cfg.Manifest = st
		t0 := time.Now()
		h, rec, err := fleet.Recover(cfg)
		if err != nil {
			return fmt.Errorf("recovering fleet from %s: %w", dataDir, err)
		}
		host = h
		fmt.Fprintf(out, "fleetd: recovered %d tenants (%d running, %d completed, %d quarantined, %d dropped) from %s in %s\n",
			rec.Tenants, rec.Running, rec.Completed, len(rec.Quarantined), len(rec.Dropped), dataDir, time.Since(t0).Round(time.Millisecond))
		for _, id := range rec.Quarantined {
			fmt.Fprintf(out, "fleetd: tenant %s recovered quarantined\n", id)
		}
		for _, id := range rec.Dropped {
			fmt.Fprintf(out, "fleetd: unrecoverable: %s\n", id)
		}
	} else {
		host = fleet.NewHost(cfg)
	}

	srv := &http.Server{Addr: addr, Handler: fleet.NewAPI(host).Handler()}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(out, "fleetd: control plane on http://%s (POST /systems to spawn; GET /presets for specs)\n", addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		host.Close()
		return err
	case s := <-sig:
		if s == syscall.SIGTERM && dataDir != "" {
			// Graceful drain: refuse new mutations, stop the sweep, commit
			// the final checkpoint barrier, then exit. A recovered fleetd
			// resumes from exactly these frames.
			fmt.Fprintf(out, "fleetd: %v: draining (final checkpoint barrier)\n", s)
			host.Drain()
		} else {
			// Hard stop: no final checkpoint. Recovery falls back to the
			// last periodic one — same as a crash, by design.
			fmt.Fprintf(out, "fleetd: %v: hard stop\n", s)
			host.Close()
		}
		return srv.Close()
	}
}
