package main

import (
	"fmt"
	"time"

	"holdcsim/internal/core"
	"holdcsim/internal/network"
	"holdcsim/internal/power"
	"holdcsim/internal/scenario"
	"holdcsim/internal/sched"
	"holdcsim/internal/server"
	"holdcsim/internal/simtime"
	"holdcsim/internal/topology"
	"holdcsim/internal/workload"
)

// bench is one fixed benchmark workload: a description of a simulation
// and the steps that turn it into a runnable data center.
type bench struct {
	name string
	seed uint64 // default seed
	jobs int64  // jobs every run must generate
	net  bool   // the workload has a network layer

	// build assembles the data center for seed, recording how long each
	// set-up step took in sp. tap, when non-nil, wraps the placer,
	// arrival process and job factory with timing pass-throughs.
	build func(seed uint64, check bool, tap *tap, sp *setupSpans) (*core.DataCenter, error)
}

// setupSpans times the set-up steps of one build, in host seconds.
type setupSpans struct {
	config float64 // scenario.Scenario.Config
	shards float64 // fat-tree ScopeMap derivation plus Sched.SetShards
	build  float64 // core.Build
}

// workloads lists the benchmark's workloads in the order `all` runs them.
var workloads = []bench{
	scenarioBench("farm-table1", 37, farmTable1(20480, 200000)),
	hyperscaleBench("hyperscale-sharded", 41, 80, 50000),
	scenarioBench("fattree-packet", 37, fatTree(8, 2500, network.ModelPacket)),
	scenarioBench("fattree-fluid", 37, fatTree(8, 2500, network.ModelFluid)),
}

func lookup(name string) (bench, error) {
	for _, b := range workloads {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// farmTable1 is the paper's Table I scalability row: a server-only farm
// under round-robin placement with Poisson WebSearch arrivals at ρ=0.2
// and the delay timer off.
func farmTable1(servers int, jobs int64) scenario.Scenario {
	return scenario.Scenario{
		Servers:        servers,
		Profile:        scenario.ProfFourCore,
		DelayTimerSec:  -1,
		Placer:         scenario.PlacerSpec{Kind: scenario.PlRoundRobin},
		Arrival:        scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.2},
		Factory:        scenario.FactorySpec{Kind: scenario.FacSingle, Service: scenario.SvcWebSearch},
		MaxJobs:        jobs,
		SwitchSleepSec: -1,
	}
}

// fatTree is a fully populated K-ary fat-tree carrying scatter-gather
// jobs (width 4, 64 KiB edges) over packet-comm transfers simulated by
// model, with server delay timers and switch sleep live.
func fatTree(k int, jobs int64, model network.NetModel) scenario.Scenario {
	return scenario.Scenario{
		Topology:       scenario.TopologySpec{Kind: scenario.TopoFatTree, A: k},
		Comm:           core.CommPacket,
		NetModel:       model,
		Servers:        k * k * k / 4,
		Profile:        scenario.ProfFourCore,
		DelayTimerSec:  0.1,
		Placer:         scenario.PlacerSpec{Kind: scenario.PlLeastLoaded},
		Arrival:        scenario.ArrivalSpec{Kind: scenario.ArrPoisson, Rho: 0.3},
		Factory:        scenario.FactorySpec{Kind: scenario.FacScatterGather, Service: scenario.SvcWebSearch, Width: 4, EdgeBytes: 64 << 10},
		MaxJobs:        jobs,
		SwitchSleepSec: 0.2,
	}
}

// scenarioBench builds its data center from a scenario.Scenario, the
// repository's one way to describe a simulation.
func scenarioBench(name string, seed uint64, s scenario.Scenario) bench {
	return bench{
		name: name,
		seed: seed,
		jobs: s.MaxJobs,
		net:  s.Topology.Kind != scenario.TopoNone,
		build: func(seed uint64, check bool, tap *tap, sp *setupSpans) (*core.DataCenter, error) {
			s := s
			s.Seed = seed
			t := time.Now()
			cfg, err := s.Config()
			sp.config = secondsSince(t)
			if err != nil {
				return nil, err
			}
			cfg.Check = check
			tap.wrap(&cfg)
			t = time.Now()
			dc, err := core.Build(cfg)
			sp.build = secondsSince(t)
			return dc, err
		},
	}
}

// hyperscaleBench is a fat-tree-organized farm of K³/4 servers placed by
// ShardedLeastLoaded over its K²/2 rack shards, with a 1 ms delay timer
// so the farm sleep planner and S3 wake-ups are live. Sharded placement
// is not a scenario field, so the config is assembled the way
// experiments.Hyperscale assembles it; the fat-tree graph is built only
// to derive the shards and is dropped before the run.
func hyperscaleBench(name string, seed uint64, k int, jobs int64) bench {
	return bench{
		name: name,
		seed: seed,
		jobs: jobs,
		build: func(seed uint64, check bool, tap *tap, sp *setupSpans) (*core.DataCenter, error) {
			n := topology.FatTree{K: k}.NumHosts()
			prof := power.FourCoreServer()
			sc := server.DefaultConfig(prof)
			sc.DelayTimerEnabled = true
			sc.DelayTimer = simtime.Millisecond
			svc := workload.WebSearchService()
			cfg := core.Config{
				Seed:         seed,
				Check:        check,
				Servers:      n,
				ServerConfig: sc,
				Placer:       sched.ShardedLeastLoaded{},
				Arrivals:     workload.Poisson{Rate: workload.UtilizationRate(0.2, n, prof.Cores, svc.Mean())},
				Factory:      workload.SingleTask{Service: svc},
				MaxJobs:      jobs,
			}
			tap.wrap(&cfg)

			t := time.Now()
			g, err := topology.FatTree{K: k}.Build()
			if err != nil {
				return nil, err
			}
			sm := topology.NewScopeMap(g)
			shardOf := make([]int32, len(sm.RackOf))
			for i, r := range sm.RackOf {
				shardOf[i] = int32(r)
			}
			sp.shards = secondsSince(t)

			t = time.Now()
			dc, err := core.Build(cfg)
			sp.build = secondsSince(t)
			if err != nil {
				return nil, err
			}
			t = time.Now()
			err = dc.Sched.SetShards(shardOf, sm.NumRacks())
			sp.shards += secondsSince(t)
			return dc, err
		},
	}
}

func secondsSince(t time.Time) float64 { return time.Since(t).Seconds() }
