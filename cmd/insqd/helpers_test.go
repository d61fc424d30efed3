package main

import (
	"context"

	insq "repro"
	"repro/internal/server"
)

// newServer adapts the historical test construction shape to the
// extracted internal/server package.
func newServer(e *insq.Engine, pprofOn bool) *server.Server {
	return server.New(e, server.Options{Pprof: pprofOn})
}

// applyOne applies a single mutation through the engine's object-write
// entry and returns its id.
func applyOne(e *insq.Engine, m insq.Mutation) (int, error) {
	ids, err := e.ApplyMutations(context.Background(), []insq.Mutation{m})
	if err != nil {
		return -1, err
	}
	return ids[0], nil
}
