// Command dashboard serves a workflow output directory as an interactive
// dashboard inside the serving shell every slurmsight server shares
// (serve.Serve): /metrics, /debug/vars, /debug/requests and
// /debug/pprof/ sit beside the pages, and every request, those included,
// is counted under dashboard_* and traced. SIGINT/SIGTERM drain
// in-flight requests before exit (-grace bounds the drain).
//
// Example:
//
//	dashboard -dir out -addr :8080
package main

import (
	"context"
	"flag"
	"log"
	"time"

	"slurmsight/internal/dashboard"
	"slurmsight/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("dashboard: ")

	var (
		dir   = flag.String("dir", "out", "workflow output directory to serve")
		addr  = flag.String("addr", ":8080", "listen address")
		grace = flag.Duration("grace", 5*time.Second, "shutdown drain budget for in-flight requests")
		slow  = flag.Duration("slow", 250*time.Millisecond, "log requests slower than this (0 disables the slow log)")
	)
	flag.Parse()

	srv, err := dashboard.New(*dir)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("serving %s on %s", *dir, *addr)
	if err := serve.Serve(context.Background(), *addr, "dashboard", nil, srv.Handler(), *slow, *grace, log.Printf); err != nil {
		log.Fatal(err)
	}
}
