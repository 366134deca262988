package main

import (
	"math/rand"

	"viper/internal/collector"
	"viper/internal/history"
	"viper/internal/mvcc"
	"viper/internal/workload"
)

// driveHistory runs txns of gen's transaction programs through clients
// virtual clients, each a collector session over one mvcc engine, and
// returns the validated history.
//
// A single goroutine steps the clients. At every step a seeded draw picks
// a client, which then begins its next program, runs one operation of it,
// or commits it. Transactions overlap and conflict the way those of
// concurrent clients do, but the interleaving depends only on seed, and the
// collector's clock is logical, so one seed always yields the same history.
// (runner.Run gives each client a goroutine, so its histories vary with
// scheduling.)
func driveHistory(gen workload.Generator, txns, clients int, seed int64) (*history.History, error) {
	col := collector.New(mvcc.New(mvcc.Config{}), collector.Config{Seed: seed})
	type client struct {
		sess *collector.Session
		rng  *rand.Rand
		tx   *collector.Txn
		ops  []workload.Op
	}
	cs := make([]client, clients)
	for i := range cs {
		cs[i] = client{sess: col.Session(), rng: rand.New(rand.NewSource(seed + int64(i+1)*7919))}
	}
	sched := rand.New(rand.NewSource(seed))
	issued, open := 0, 0
	for issued < txns || open > 0 {
		c := &cs[sched.Intn(clients)]
		switch {
		case c.tx == nil:
			if issued == txns {
				continue
			}
			c.ops = gen.Next(c.rng).Ops
			c.tx = c.sess.Begin()
			issued++
			open++
		case len(c.ops) > 0:
			apply(c.tx, c.ops[0])
			c.ops = c.ops[1:]
		default:
			// A first-committer-wins conflict is recorded as an abort.
			c.tx.Commit()
			c.tx = nil
			open--
		}
	}
	return col.History()
}

// apply runs one program operation. Operation-level errors (an insert of
// a live key, a delete of a missing one) are workload outcomes the
// collector records, not failures.
func apply(tx *collector.Txn, op workload.Op) {
	switch op.Kind {
	case workload.OpRead:
		tx.Read(op.Key)
	case workload.OpWrite:
		tx.Write(op.Key, op.Payload)
	case workload.OpRMW:
		v, _, _ := tx.Read(op.Key)
		tx.Write(op.Key, v+op.Payload)
	case workload.OpInsert:
		tx.Insert(op.Key, op.Payload)
	case workload.OpDelete:
		tx.Delete(op.Key)
	case workload.OpRange:
		tx.Range(op.Lo, op.Hi)
	}
}
