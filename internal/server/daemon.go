package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// ServeDaemon is both daemons' process lifecycle. It listens on addr and
// prints "NAME: listening on http://ADDR" plus note to stdout, so a
// script that started it on an ephemeral port (-addr :0) can find it.
// It then serves h until SIGINT or SIGTERM, calls drain (when non-nil)
// and gives open connections shutdown to finish. A second signal kills
// the process instead of waiting.
func ServeDaemon(name, addr, note string, h http.Handler, drain func(), shutdown time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("%s: listening on http://%s%s\n", name, ln.Addr(), note)

	// ReadHeaderTimeout bounds slow-loris header dribble; IdleTimeout
	// reaps abandoned keep-alive connections. No overall write timeout:
	// /events streams for as long as a sweep runs.
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		return err
	case <-ctx.Done():
	}
	stop()
	if drain != nil {
		drain()
	}
	sctx, cancel := context.WithTimeout(context.Background(), shutdown)
	defer cancel()
	return hs.Shutdown(sctx)
}
