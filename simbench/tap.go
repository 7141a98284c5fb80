package main

import (
	"slices"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/job"
	"holdcsim/internal/rng"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/workload"
)

// tap observes a traced run from outside the model: pass-through
// wrappers time every call into the placer, the arrival process and the
// job factory, and a dispatch subscriber samples queue high-water marks.
// None of it changes what the simulation computes.
type tap struct {
	place  calls // sched.Placer.Place
	next   calls // workload.ArrivalProcess.Next
	newJob calls // workload.JobFactory.NewJob

	tasks    int64 // tasks in the jobs the factory built
	queueMax int   // largest engine.Len() seen at a dispatch
	heapMax  int   // largest Farm.SleepHeapLen() seen at a dispatch
}

// calls records the duration of every call through one seam.
type calls struct{ ns []int64 }

func (c *calls) add(d time.Duration) { c.ns = append(c.ns, int64(d)) }

// count reports the number of calls.
func (c *calls) count() int { return len(c.ns) }

// total reports the time spent in all calls, in seconds.
func (c *calls) total() float64 {
	var sum int64
	for _, n := range c.ns {
		sum += n
	}
	return float64(sum) / 1e9
}

// percentile reports the p-th percentile call duration in nanoseconds
// (nearest rank).
func (c *calls) percentile(p float64) float64 {
	if len(c.ns) == 0 {
		return 0
	}
	s := slices.Clone(c.ns)
	slices.Sort(s)
	i := int(p/100*float64(len(s))+0.5) - 1
	return float64(s[min(max(i, 0), len(s)-1)])
}

// wrap replaces cfg's placer, arrival process and job factory with timed
// pass-throughs. A nil tap leaves cfg alone.
func (tp *tap) wrap(cfg *core.Config) {
	if tp == nil {
		return
	}
	cfg.Placer = placerTap{Placer: cfg.Placer, c: &tp.place}
	cfg.Arrivals = arrivalTap{ArrivalProcess: cfg.Arrivals, c: &tp.next}
	cfg.Factory = factoryTap{JobFactory: cfg.Factory, c: &tp.newJob, tasks: &tp.tasks}
}

// observe subscribes to dc's dispatches to sample the engine's queue
// length and the farm's sleep-heap length. A nil tap does nothing.
func (tp *tap) observe(dc *core.DataCenter) {
	if tp == nil {
		return
	}
	dc.Sched.OnDispatch(func(*server.Server, *job.Task) {
		tp.queueMax = max(tp.queueMax, dc.Eng.Len())
		tp.heapMax = max(tp.heapMax, dc.Farm.SleepHeapLen())
	})
}

type placerTap struct {
	sched.Placer
	c *calls
}

func (p placerTap) Place(s *sched.Scheduler, t *job.Task, candidates []*server.Server) *server.Server {
	start := time.Now()
	srv := p.Placer.Place(s, t, candidates)
	p.c.add(time.Since(start))
	return srv
}

type arrivalTap struct {
	workload.ArrivalProcess
	c *calls
}

func (a arrivalTap) Next(r *rng.Source) float64 {
	start := time.Now()
	gap := a.ArrivalProcess.Next(r)
	a.c.add(time.Since(start))
	return gap
}

type factoryTap struct {
	workload.JobFactory
	c     *calls
	tasks *int64
}

func (f factoryTap) NewJob(id job.ID, now simtime.Time, r *rng.Source) *job.Job {
	start := time.Now()
	j := f.JobFactory.NewJob(id, now, r)
	f.c.add(time.Since(start))
	*f.tasks += int64(len(j.Tasks))
	return j
}
