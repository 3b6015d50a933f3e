// Robot learning at the edge — the paper's Figure 7 case study (§IX).
//
// General-purpose models are trained in the cloud and *refined* at the
// edge.  Environment-specific information (refined models, episode
// history) must stay on the factory floor for privacy: the owner's AdCert
// restricts those capsules to the factory routing domain, and the GDP
// enforces the boundary — outside clients cannot even resolve the names.
#include <iostream>

#include "caapi/fs.hpp"
#include "harness/scenario.hpp"

using namespace gdp;

int main() {
  std::cout << "== GDP robot-learning case study (Figure 7) ==\n";
  harness::Scenario s(/*seed=*/21, "robots");

  // Cloud and factory domains under a global root.
  auto* global = s.add_domain("global", nullptr);
  auto* cloud = s.add_domain("cloud", global);
  auto* factory = s.add_domain("factory", global);
  auto* r_cloud = s.add_router("cloud-router", cloud);
  auto* r_factory = s.add_router("factory-router", factory);
  // Residential-grade uplink between the factory and the cloud.
  s.link_routers(r_cloud, r_factory, net::LinkParams::wan(40));

  auto* cloud_srv = s.add_server("cloud-server", r_cloud);
  auto* edge_srv = s.add_server("edge-server", r_factory);

  auto* trainer = s.add_client("cloud-trainer", r_cloud);
  auto* robot = s.add_client("worker-robot", r_factory);
  s.attach_all();

  // --- 1. The general-purpose model is published in the cloud, world-readable.
  auto model_fs = caapi::GdpFilesystem::mount(
      caapi::Mount::create(s, *trainer, {cloud_srv}, "model-repo"));
  if (!model_fs.ok()) return 1;
  Rng data_rng(3);
  Bytes general_model = data_rng.next_bytes(512 * 1024);  // 512 kB demo model
  if (!model_fs->write_file("resnet-general.ckpt", general_model).ok()) return 1;
  std::cout << "cloud: published general model ("
            << general_model.size() / 1024 << " kB)\n";

  // --- 2. The robot pulls the model across the WAN (verified end to end).
  auto pulled = model_fs->read_file("resnet-general.ckpt");
  if (!pulled.ok() || *pulled != general_model) {
    std::cerr << "model pull failed\n";
    return 1;
  }
  std::cout << "factory: pulled and verified general model over the WAN\n";

  // --- 3. Episode history stays on the factory floor: the owner restricts
  //        the capsule to the factory domain.
  harness::CapsuleSetup episodes =
      harness::make_capsule(s.key_rng(), "episode-history");
  auto placed = harness::place_capsule(s, episodes, *robot, {edge_srv},
                                       {factory->domain()});
  if (!placed.ok()) return 1;
  capsule::Writer episode_writer = episodes.make_writer();
  for (int i = 0; i < 20; ++i) {
    Bytes episode = data_rng.next_bytes(2048);
    auto outcome = client::await(s.sim(), robot->append(episode_writer, episode));
    if (!outcome.ok()) return 1;
  }
  std::cout << "factory: recorded 20 grasp episodes into a restricted capsule\n";

  // --- 4. The privacy boundary holds: a cloud client cannot resolve the
  //        episode capsule at all.
  auto snoop = client::await(s.sim(), trainer->read_latest(episodes.metadata));
  std::cout << "cloud: attempt to read episode history -> "
            << (snoop.ok() ? "LEAKED (bug!)" : snoop.error().to_string()) << "\n";
  if (snoop.ok()) return 1;

  // --- 5. The robot refines the model locally; the refined model is also
  //        confined to the factory.
  harness::CapsuleSetup refined =
      harness::make_capsule(s.key_rng(), "refined-model");
  if (!harness::place_capsule(s, refined, *robot, {edge_srv}, {factory->domain()})
           .ok()) {
    return 1;
  }
  capsule::Writer refined_writer = refined.make_writer();
  Bytes refined_model = data_rng.next_bytes(512 * 1024);
  TimePoint t0 = s.sim().now();
  auto stored = client::await(s.sim(), robot->append(refined_writer, refined_model));
  if (!stored.ok()) return 1;
  double edge_store_s = to_seconds(s.sim().now() - t0);

  t0 = s.sim().now();
  auto reload = client::await(s.sim(), robot->read_latest(refined.metadata));
  if (!reload.ok()) return 1;
  double edge_load_s = to_seconds(s.sim().now() - t0);
  std::cout << "factory: refined model store " << edge_store_s << " s, load "
            << edge_load_s << " s using edge resources\n";

  std::cout << "robot case study OK — models flow, episodes stay put\n";
  return 0;
}
