// Figure 6: detailed per-node trace of the O(1)-buffer scheme with N = 7 —
// for three consecutive steady-state slots, each node's consumed packet,
// transmitted packet, and transmission target.
#include <iostream>
#include <map>

#include "bench/bench_util.hpp"
#include "src/hypercube/arbitrary.hpp"
#include "src/hypercube/protocol.hpp"
#include "src/net/topology.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/trace.hpp"
#include "src/util/table.hpp"

namespace {

using namespace streamcast;

class TraceObserver final : public sim::DeliveryObserver {
 public:
  explicit TraceObserver(sim::Trace& trace) : trace_(trace) {}
  void on_delivery(const sim::Delivery& d) override { trace_.record(d); }

 private:
  sim::Trace& trace_;
};

}  // namespace

int main() {
  bench::banner("Figure 6",
                "per-slot consume/send table of the O(1)-buffer scheme, "
                "N = 7 (k = 3)");

  const sim::NodeKey n = 7;
  const int k = 3;
  net::UniformCluster topo(n, 1);
  hypercube::HypercubeProtocol proto({hypercube::decompose_chain(n)});
  sim::Engine engine(topo, proto);
  sim::Trace trace;
  TraceObserver observer(trace);
  engine.add_observer(observer);
  engine.run_until(16);

  // Appends, not `"N" + std::to_string(x)`: GCC 12's -Wrestrict misfires
  // on the inlined operator+ in Release builds.
  const auto node = [](sim::NodeKey x) {
    return std::string("N").append(std::to_string(x));
  };
  for (sim::Slot t = 9; t <= 11; ++t) {
    std::cout << "slot " << t << "  (pairing dimension " << t % k
              << "; every node consumes packet " << t - k << "):\n";
    util::Table table({"node", "sends packet", "to"});
    std::map<sim::NodeKey, const sim::Delivery*> by_sender;
    for (const auto& d : trace.sent_in(t)) {
      by_sender[d.tx.from] = &d;
    }
    for (sim::NodeKey v = 0; v <= n; ++v) {
      const auto it = by_sender.find(v);
      const std::string who = v == 0 ? "S" : node(v);
      if (it == by_sender.end()) {
        table.add_row({who, "-", "-"});
      } else {
        table.add_row({who, util::cell(it->second->tx.packet),
                       node(it->second->tx.to)});
      }
    }
    table.print(std::cout);
    std::cout << '\n';
  }
  std::cout << "The node paired with S each slot receives the fresh packet "
               "and sends nothing in-cube — the spare capacity §3.2 feeds "
               "to the next hypercube for arbitrary N.\n";
  return 0;
}
