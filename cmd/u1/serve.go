package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"u1/internal/protocol"
	"u1/internal/server"
)

// runServe is `u1 serve`: the back-end over real TCP until SIGINT or SIGTERM.
func runServe(args []string, stdout io.Writer) error {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	return serve(args, stdout, stop)
}

// serve runs the full Fig. 1 deployment in one process — API server machines
// behind a least-loaded gateway, the sharded metadata store, the data store,
// the auth service and the notification broker — on the cluster the flags
// describe, ticking it once a second (replication, upload-job sweep) and
// pre-issuing tokens for `u1 cli`. When stop delivers it closes the
// sockets, then the cluster, so a durable store snapshots and closes its
// journals; the returned error reports a failed close.
func serve(args []string, stdout io.Writer, stop <-chan os.Signal) error {
	fs := newFlagSet("serve")
	cf := addClusterFlags(fs)
	gateway := fs.String("gateway", "127.0.0.1:7001", "gateway listen address")
	machines := fs.Int("machines", 6, "number of API server machines")
	procs := fs.Int("procs", 12, "API processes per machine")
	issue := fs.Int("issue", 3, "pre-issue tokens for this many demo users")
	realSleep := fs.Bool("realistic-latency", false, "RPCs take their sampled service time in wall time")
	debugAddr := addDebugFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *machines < 1 || *machines > len(server.DefaultMachines) {
		return fmt.Errorf("-machines %d: the fleet has 1 to %d API server machines", *machines, len(server.DefaultMachines))
	}
	if *procs < 1 {
		return fmt.Errorf("-procs %d: every machine runs at least one API process", *procs)
	}
	cfg, err := cf.config()
	if err != nil {
		return err
	}
	cfg.Machines = server.DefaultMachines[:*machines]
	cfg.ProcsPerMachine = *procs
	cfg.InlineData = true
	cfg.RealSleep = *realSleep
	cluster, err := server.OpenCluster(cfg)
	if err != nil {
		return err
	}
	tc, err := cluster.ListenAndServe(*gateway)
	if err != nil {
		return errors.Join(err, cluster.Close())
	}

	fmt.Fprintf(stdout, "gateway listening on %s (%d machines × %d procs)\n", tc.GateAddr, len(cluster.Servers), *procs)
	stopDebug := func() error { return nil }
	if *debugAddr != "" {
		var at net.Addr
		if at, stopDebug, err = serveDebug(*debugAddr, cluster.Metrics, cluster.Store.Fences); err != nil {
			tc.Close()
			return errors.Join(err, cluster.Close())
		}
		fmt.Fprintf(stdout, "debug listening on %s\n", at)
	}
	for i := 1; i <= *issue; i++ {
		token, err := cluster.Auth.Issue(protocol.UserID(i))
		if err != nil {
			tc.Close()
			stopDebug() //nolint:errcheck
			return errors.Join(fmt.Errorf("issuing token: %w", err), cluster.Close())
		}
		fmt.Fprintf(stdout, "user %d token: %s\n", i, token)
	}
	fmt.Fprintln(stdout, "ready; ctrl-c to stop")

	<-stop
	fmt.Fprintln(stdout, "shutting down")
	stopDebug() //nolint:errcheck
	tc.Close()
	if err := cluster.Close(); err != nil {
		return fmt.Errorf("closing cluster: %w", err)
	}
	return nil
}
