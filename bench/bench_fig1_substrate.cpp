// Fig. 1: the system model substrate -- clients and servers connected by
// asynchronous reliable channels. This binary characterizes the simulator:
// event throughput, message delivery throughput, and determinism.
#include <memory>

#include "bench/bench_util.h"
#include "sim/network.h"
#include "sim/simulator.h"

namespace mwreg {
namespace {

class Sink final : public Process {
 public:
  Sink(NodeId id, Network& net) : Process(id, net) {}
  void on_message(const Frame& m) override {
    ++received;
    if (echo && m.type == 1) net().send_bytes(id(), m.src, 2, 0, m.rpc_id, {});
  }
  bool echo = false;
  std::uint64_t received = 0;
};

void report() {
  using bench::header;
  using bench::row;
  header("Fig. 1 substrate: clients/servers over asynchronous channels");

  // Determinism: two identically-seeded runs deliver identically.
  auto run_digest = [](std::uint64_t seed) {
    Simulator sim;
    Network net(sim, std::make_unique<UniformDelay>(1, 1000), Rng(seed));
    Sink a(0, net), b(1, net);
    b.echo = true;
    std::uint64_t digest = 0;
    net.set_delivery_hook([&](const Frame& m, Time, Time d) {
      digest = digest * 1315423911u + static_cast<std::uint64_t>(d) + m.type;
    });
    for (int i = 0; i < 200; ++i) {
      net.send_bytes(0, 1, 1, 0, static_cast<std::uint64_t>(i), {});
    }
    sim.run();
    return digest;
  };
  const bool deterministic =
      run_digest(5) == run_digest(5) && run_digest(5) != run_digest(6);
  row({"determinism", deterministic ? "identical seeds -> identical schedules"
                                    : "BROKEN"},
      {18, 50});

  // Quick throughput snapshot (the BM_ entries below give precise numbers).
  Simulator sim;
  Network net(sim, std::make_unique<ConstantDelay>(10), Rng(1));
  Sink a(0, net), b(1, net);
  for (int i = 0; i < 100000; ++i) net.send_bytes(0, 1, 3, 0, 0, {});
  sim.run();
  row({"delivered", std::to_string(b.received) + " messages in one burst"},
      {18, 50});
}

void BM_ScheduleAndRunEvents(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    int acc = 0;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ScheduleAndRunEvents);

void BM_MessageDelivery(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Network net(sim, std::make_unique<UniformDelay>(1, 100), Rng(1));
    Sink a(0, net), b(1, net);
    for (int i = 0; i < 1000; ++i) net.send_bytes(0, 1, 1, 0, 0, {});
    sim.run();
    benchmark::DoNotOptimize(b.received);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_MessageDelivery);

void BM_RequestReplyRoundTrip(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Network net(sim, std::make_unique<ConstantDelay>(5), Rng(1));
    Sink client(0, net), server(1, net);
    server.echo = true;
    for (int i = 0; i < 500; ++i) {
      net.send_bytes(0, 1, 1, 0, static_cast<std::uint64_t>(i), {});
    }
    sim.run();
    benchmark::DoNotOptimize(client.received);
  }
  state.SetItemsProcessed(state.iterations() * 500);
}
BENCHMARK(BM_RequestReplyRoundTrip);

}  // namespace
}  // namespace mwreg

MWREG_BENCH_MAIN(mwreg::report)
