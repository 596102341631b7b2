// Package funcx models FuncX, the on-premise federated function-serving
// fabric for science (Chard et al., HPDC '20) that the paper evaluates as an
// HTC/HPC-focused alternative to commercial clouds (Fig. 18).
//
// FuncX differs from AWS Lambda in the ways the paper measures:
//
//   - Workers are spawned inside Kubernetes pods on a fixed cluster, and
//     multiple workers share one pod, so the pod's container pull is paid
//     once per pod rather than once per instance (PodSize).
//   - Kubernetes' container caching makes image builds cheap, and shipping
//     stays inside the cluster network — so FuncX scales ~15% faster than
//     Lambda at a concurrency of 5000.
//   - Pods isolate co-resident work less well than Firecracker microVMs, so
//     packed execution runs ~12% slower than on Lambda (IsolationFactor) —
//     which is why ProPack's service-time gains are larger on Lambda.
//
// The paper's testbed is a 100-node EC2 cluster (r5.2xlarge/r5.4xlarge,
// 1000 cores, 20,608 GB RAM); the billing fields of Config charge
// EC2-equivalent prices rather than serverless ones.
package funcx

import "repro/internal/platform"

// PodSize is the number of FuncX workers co-located in one Kubernetes pod.
const PodSize = 8

// Config returns the simulated FuncX platform. It reuses the generic
// control-plane model with FuncX's pod semantics and cluster-local costs.
func Config() platform.Config {
	c := platform.AWSLambda()
	c.Name = "FuncX"
	// Pods isolate less well than Firecracker: packed functions interfere
	// slightly more, so identical packed work runs slower (paper Fig. 18).
	c.Shape.IsolationFactor = 1.12
	// Placement over a fixed, known cluster is a cheaper search than over a
	// shared datacenter, and container caching + cluster-local shipping
	// shrink the image path.
	c.SchedBaseSec = 0.085
	c.SchedPerBusySec = 40e-6
	c.BuildSec = 1.2
	c.BuildGrowthSec = 0.3e-3
	c.BuildServers = 64
	c.ShipSec = 0.004
	c.ShipGrowthSec = 4e-6
	c.ShipServers = 1
	c.BootSec = 0.25 // pod start: faster than a microVM boot chain
	c.WarmStartSec = 0.030
	c.PodSize = PodSize
	// On-premise accounting: EC2 node-hour prices amortized per GB·second
	// (r5.2xlarge: $0.504/h over 64 GB), no per-request or egress fees.
	c.GBSecondUSD = 2.2e-6
	c.PerRequestUSD = 0
	c.Storage.PutRequestUSD = 0
	c.Storage.GetRequestUSD = 0
	c.Storage.EgressPerGBUSD = 0
	c.StorageGBps = 0.4 // cluster-local shared filesystem
	c.MaxExecSec = 86400
	return c
}
