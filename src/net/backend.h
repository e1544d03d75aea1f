// Netpoller snapshot for introspection and benchmarks: which engine serves
// the net_* API (always the epoll readiness poller) and its two gauges.

#ifndef SUNMT_SRC_NET_BACKEND_H_
#define SUNMT_SRC_NET_BACKEND_H_

namespace sunmt {

// The NET line in FormatProcessState().
struct NetBackendStats {
  const char* name = "";
  int registered = 0;  // fds currently registered
  int parked = 0;      // threads currently parked on readiness
};

// Name of the netpoller engine: "epoll".
const char* net_backend_name();

// Fills `out` from the poller; false if it was never instantiated.
bool net_backend_snapshot(NetBackendStats* out);

}  // namespace sunmt

#endif  // SUNMT_SRC_NET_BACKEND_H_
