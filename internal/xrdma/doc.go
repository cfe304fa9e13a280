// Package xrdma implements the X-RDMA middleware — the paper's primary
// contribution (the internal/core role in this repository's layout). It
// provides the three data structures (Context, Channel, Msg) and the small
// API surface of Table I on top of the verbs facade:
//
//   - a run-to-complete, per-context execution model with hybrid polling
//     (§IV-B);
//   - the mixed message model: small messages inline over SEND, large
//     messages announced over SEND and pulled by the receiving side with
//     fragmented RDMA READ — "read replace write" (§IV-C);
//   - the application-layer seq-ack window of Algorithm 1, which makes
//     channels RNR-free and application-aware (§V-B), with the NOP
//     deadlock breaker;
//   - keepalive probes built from zero-byte RDMA writes (§V-A);
//   - flow control by fragmentation and outstanding-WR queueing to
//     complement DCQCN under incast (§V-C);
//   - resource management: a per-context memory cache of few MRs (up to 4 MB) and a
//     QP cache that recycles reset QPs to cut establishment time (§IV-E);
//   - the analysis framework: tracing with clock synchronisation,
//     per-channel statistics, online/offline configuration, fault
//     injection (Filter), TCP fallback (Mock) and a per-node monitor,
//     the context's xrmon agent (§VI).
package xrdma
