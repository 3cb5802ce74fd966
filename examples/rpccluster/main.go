// RPC cluster: the multi-process deployment mode. This example spins
// up three detection sites as real net/rpc TCP servers (in-process
// here for convenience; cmd/cfdsite runs the identical server as a
// standalone daemon), connects a driver with a call budget configured,
// compiles a detection session, and serves repeated queries over
// actual sockets — statistics exchange, tuple shipment and coordinator
// detection all cross the network, and a hung site can stall a run
// only up to the per-call budget.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"time"

	"distcfd"
	"distcfd/internal/core"
	"distcfd/internal/remote"
	"distcfd/internal/workload"
)

func main() {
	part, err := workload.EMPFig1bPartition()
	if err != nil {
		log.Fatal(err)
	}

	// One TCP server per fragment (what `cfdsite -data fragN.csv -id N`
	// does from the command line); cancelling serving shuts them down.
	serving, stop := context.WithCancel(context.Background())
	defer stop()
	addrs := make([]string, part.N())
	for i, frag := range part.Fragments {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		site := core.NewSite(i, frag, part.Predicates[i])
		go func() { _ = remote.ServeAPIContext(serving, lis, site, part.Schema) }()
		addrs[i] = lis.Addr().String()
		fmt.Printf("site %d: %d tuples on %s (%v)\n", i, frag.Len(), addrs[i], part.Predicates[i])
	}

	// CallTimeout bounds every RPC so a wedged site fails the run
	// instead of hanging it; it is set once, at dial.
	cluster, err := distcfd.NewRemoteClusterConfig(addrs, distcfd.DialConfig{
		CallTimeout: 10 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Compile once over the remote cluster.
	det, err := distcfd.Compile(cluster, workload.EMPCFDs(),
		distcfd.WithAlgorithm(distcfd.PatDetectS))
	if err != nil {
		log.Fatal(err)
	}

	// Serve per-rule queries from the session; each call may also carry
	// its own deadline.
	for _, rule := range workload.EMPCFDs() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := det.DetectOne(ctx, rule.Name)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s over TCP: %d tuples shipped, %d violating pattern(s)\n",
			rule.Name, res.ShippedTuples, res.PerCFD[0].Len())
		for _, t := range res.PerCFD[0].Tuples() {
			fmt.Printf("  %v\n", t)
		}
	}
}
