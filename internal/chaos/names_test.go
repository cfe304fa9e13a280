package chaos

import (
	"reflect"
	"strings"
	"testing"

	"xrdma/internal/cluster"
	"xrdma/internal/fabric"
	"xrdma/internal/telemetry"
	"xrdma/internal/xrdma"
)

// pinnedNames is every registry name of a 2-node cluster with one tenant and
// a chaos injector, sorted: what XR-Stat, xrmon's probes and every exporter
// may look up. A counter family's names follow from its fields
// (telemetry.Registry.Fields), so renaming a field or dropping a tag shows
// up here.
const pinnedNames = `
chaos.faults chaos.heals fabric.corrupted fabric.data_bytes fabric.delivered fabric.drops
fabric.ecn_marks fabric.max_port_queue fabric.pause_tx fabric.pod0-leaf0.dead_drops
fabric.pod0-leaf0.drops fabric.pod0-leaf0.rerouted fabric.pod0-tor0.dead_drops
fabric.pod0-tor0.drops fabric.pod0-tor0.rerouted fabric.queue_bytes fabric.rerouted
rnic.0.acks_recv rnic.0.acks_sent rnic.0.bytes_recv rnic.0.bytes_sent rnic.0.cmd_queue
rnic.0.cnp_recv rnic.0.cnp_sent rnic.0.corrupt_drops rnic.0.dcqcn_cuts rnic.0.local_prot_errs
rnic.0.msgs_recv rnic.0.msgs_sent rnic.0.pkts_recv rnic.0.pkts_sent rnic.0.qp_cache_hits
rnic.0.qp_cache_misses rnic.0.qps rnic.0.remote_access_errs rnic.0.retransmits
rnic.0.rnr_nak_recv rnic.0.rnr_nak_sent rnic.0.seq_nak_recv rnic.0.seq_nak_sent rnic.1.acks_recv
rnic.1.acks_sent rnic.1.bytes_recv rnic.1.bytes_sent rnic.1.cmd_queue rnic.1.cnp_recv
rnic.1.cnp_sent rnic.1.corrupt_drops rnic.1.dcqcn_cuts rnic.1.local_prot_errs rnic.1.msgs_recv
rnic.1.msgs_sent rnic.1.pkts_recv rnic.1.pkts_sent rnic.1.qp_cache_hits rnic.1.qp_cache_misses
rnic.1.qps rnic.1.remote_access_errs rnic.1.retransmits rnic.1.rnr_nak_recv rnic.1.rnr_nak_sent
rnic.1.seq_nak_recv rnic.1.seq_nak_sent sim.fired sim.pending xrdma.0.acks_sent
xrdma.0.agg_channels xrdma.0.channels xrdma.0.channels_broken xrdma.0.channels_closed
xrdma.0.channels_opened xrdma.0.degraded xrdma.0.dispatched xrdma.0.drain_refusals
xrdma.0.drain_state xrdma.0.event_wakes xrdma.0.failbacks xrdma.0.keepalive_fails
xrdma.0.keepalive_probes xrdma.0.mem_inuse xrdma.0.mem_occupied xrdma.0.mem_pool_inuse
xrdma.0.mock_switches xrdma.0.mux_qps xrdma.0.nops_sent xrdma.0.path_escalations
xrdma.0.path_hints xrdma.0.path_hints_recv xrdma.0.path_rehashes xrdma.0.polls xrdma.0.qp_cache
xrdma.0.recover_attempts xrdma.0.recoveries xrdma.0.recovery_ns.count xrdma.0.recovery_ns.p50
xrdma.0.recovery_ns.p99 xrdma.0.recovery_ns.sum xrdma.0.rehydrated xrdma.0.req_retries
xrdma.0.req_timeouts xrdma.0.rtt_ns.count xrdma.0.rtt_ns.p50 xrdma.0.rtt_ns.p99
xrdma.0.rtt_ns.sum xrdma.0.slow_ops xrdma.0.slow_polls xrdma.0.srq_grows xrdma.0.srq_posted
xrdma.0.tenant.1.attach_sheds xrdma.0.tenant.1.drr_queued xrdma.0.tenant.1.inflight
xrdma.0.tenant.1.mem_budget xrdma.0.tenant.1.mem_rejects xrdma.0.tenant.1.mem_used
xrdma.0.tenant.1.rate_stalls xrdma.0.tenant.1.recv xrdma.0.tenant.1.rtt_count
xrdma.0.tenant.1.rtt_sum_ns xrdma.0.tenant.1.rxbytes xrdma.0.tenant.1.sent
xrdma.0.tenant.1.sheds xrdma.0.tenant.1.txbytes xrdma.0.tenant.1.weight
xrdma.0.tenant.1.win_stalls xrdma.0.tenant_unknown xrdma.0.ver_mismatches xrdma.1.acks_sent
xrdma.1.agg_channels xrdma.1.channels xrdma.1.channels_broken xrdma.1.channels_closed
xrdma.1.channels_opened xrdma.1.degraded xrdma.1.dispatched xrdma.1.drain_refusals
xrdma.1.drain_state xrdma.1.event_wakes xrdma.1.failbacks xrdma.1.keepalive_fails
xrdma.1.keepalive_probes xrdma.1.mem_inuse xrdma.1.mem_occupied xrdma.1.mem_pool_inuse
xrdma.1.mock_switches xrdma.1.mux_qps xrdma.1.nops_sent xrdma.1.path_escalations
xrdma.1.path_hints xrdma.1.path_hints_recv xrdma.1.path_rehashes xrdma.1.polls xrdma.1.qp_cache
xrdma.1.recover_attempts xrdma.1.recoveries xrdma.1.recovery_ns.count xrdma.1.recovery_ns.p50
xrdma.1.recovery_ns.p99 xrdma.1.recovery_ns.sum xrdma.1.rehydrated xrdma.1.req_retries
xrdma.1.req_timeouts xrdma.1.rtt_ns.count xrdma.1.rtt_ns.p50 xrdma.1.rtt_ns.p99
xrdma.1.rtt_ns.sum xrdma.1.slow_ops xrdma.1.slow_polls xrdma.1.srq_grows xrdma.1.srq_posted
xrdma.1.tenant.1.attach_sheds xrdma.1.tenant.1.drr_queued xrdma.1.tenant.1.inflight
xrdma.1.tenant.1.mem_budget xrdma.1.tenant.1.mem_rejects xrdma.1.tenant.1.mem_used
xrdma.1.tenant.1.rate_stalls xrdma.1.tenant.1.recv xrdma.1.tenant.1.rtt_count
xrdma.1.tenant.1.rtt_sum_ns xrdma.1.tenant.1.rxbytes xrdma.1.tenant.1.sent
xrdma.1.tenant.1.sheds xrdma.1.tenant.1.txbytes xrdma.1.tenant.1.weight
xrdma.1.tenant.1.win_stalls xrdma.1.tenant_unknown xrdma.1.ver_mismatches
`

func TestRegistryNamesPinned(t *testing.T) {
	c := cluster.New(cluster.Options{
		Topology: fabric.Topology{Pods: 1, LeavesPerPod: 1, TorsPerPod: 1, HostsPerTor: 2},
		Config:   func(_ int, cfg *xrdma.Config) { cfg.Tenants = []xrdma.TenantConfig{{Name: "t"}} },
		Seed:     1,
	})
	New(c)
	var got []string
	for _, e := range telemetry.For(c.Eng).Reg.Snapshot() {
		got = append(got, e.Name)
	}
	if want := strings.Fields(pinnedNames); !reflect.DeepEqual(got, want) {
		t.Fatalf("registry names (%d) differ from the pinned list (%d):\n%s", len(got), len(want), strings.Join(got, " "))
	}
}
