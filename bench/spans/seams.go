package spans

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/httpapi"
)

// Span names, one per seam the tracer wraps.
const (
	Handle     = "httpapi.handle"  // Server.Handler().ServeHTTP, a request's root span
	Admit      = "core.admit"      // Controller.AllocateHomog / AllocateHetero
	Release    = "core.release"    // Controller.Release
	DryRun     = "core.dryrun"     // Controller.CanAllocateHomog / CanAllocateHetero
	Read       = "core.read"       // Controller.MaxOccupancy / LinkLoads, behind status and links
	Stage      = "wal.stage"       // AsyncJournal.StageCommit: encode and enqueue, under the manager's lock
	CommitWait = "wal.commit_wait" // the wait StageCommit returns: group-commit wait, write and fsync
	Checkpoint = "wal.checkpoint"  // Journal.Checkpoint
)

// Handler wraps an http.Handler in the request's root span.
func Handler(t *Tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer t.Begin(Handle)()
		h.ServeHTTP(w, r)
	})
}

// Controller wraps the seam between httpapi and the controller behind
// it. Methods it does not override cost too little to be worth a span
// and are counted in the handler's self time.
type Controller struct {
	httpapi.Controller
	T *Tracer
}

func (c Controller) AllocateHomog(req core.Homogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	defer c.T.Begin(Admit)()
	return c.Controller.AllocateHomog(req, opts...)
}

func (c Controller) AllocateHetero(req core.Heterogeneous, opts ...core.CallOption) (*core.Allocation, error) {
	defer c.T.Begin(Admit)()
	return c.Controller.AllocateHetero(req, opts...)
}

func (c Controller) Release(id core.JobID, opts ...core.CallOption) error {
	defer c.T.Begin(Release)()
	return c.Controller.Release(id, opts...)
}

func (c Controller) CanAllocateHomog(req core.Homogeneous) bool {
	defer c.T.Begin(DryRun)()
	return c.Controller.CanAllocateHomog(req)
}

func (c Controller) CanAllocateHetero(req core.Heterogeneous) bool {
	defer c.T.Begin(DryRun)()
	return c.Controller.CanAllocateHetero(req)
}

func (c Controller) MaxOccupancy() float64 {
	defer c.T.Begin(Read)()
	return c.Controller.MaxOccupancy()
}

func (c Controller) LinkLoads() []core.LinkLoad {
	defer c.T.Begin(Read)()
	return c.Controller.LinkLoads()
}

// Journal wraps the seam between the manager and its journal.
type Journal struct {
	core.AsyncJournal
	T *Tracer
}

func (j Journal) StageCommit(mut core.Mutation) (func() error, error) {
	end := j.T.Begin(Stage)
	wait, err := j.AsyncJournal.StageCommit(mut)
	end()
	if err != nil {
		return nil, err
	}
	return func() error {
		defer j.T.Begin(CommitWait)()
		return wait()
	}, nil
}

func (j Journal) Checkpoint(st *core.ManagerState) error {
	defer j.T.Begin(Checkpoint)()
	return j.AsyncJournal.Checkpoint(st)
}
