// Device catalog and behaviour-simulator tests.
#include <gtest/gtest.h>

#include <set>

#include "capture/trace.h"
#include "devices/catalog.h"
#include "devices/profiles.h"
#include "devices/simulator.h"

namespace sentinel::devices {
namespace {

TEST(Catalog, HasTwentySevenTypesInFig5Order) {
  EXPECT_EQ(DeviceTypeCount(), 27u);
  EXPECT_EQ(DeviceCatalog().front().identifier, "Aria");
  EXPECT_EQ(DeviceCatalog().back().identifier, "iKettle2");
  // Index == id invariant.
  for (std::size_t i = 0; i < DeviceTypeCount(); ++i)
    EXPECT_EQ(DeviceCatalog()[i].id, static_cast<DeviceTypeId>(i));
}

TEST(Catalog, IdentifiersAreUnique) {
  std::set<std::string> names;
  for (const auto& info : DeviceCatalog()) names.insert(info.identifier);
  EXPECT_EQ(names.size(), DeviceTypeCount());
}

TEST(Catalog, LookupByName) {
  const auto id = FindDeviceType("HueBridge");
  ASSERT_GE(id, 0);
  EXPECT_EQ(GetDeviceType(id).vendor, "Philips");
  EXPECT_EQ(FindDeviceType("NoSuchDevice"), -1);
  EXPECT_THROW(GetDeviceType(999), std::out_of_range);
}

TEST(Catalog, ConfusableSetMatchesTableIII) {
  const auto& ids = ConfusableDeviceTypes();
  ASSERT_EQ(ids.size(), 10u);
  // Table III numbering: 1 = D-LinkSwitch ... 10 = iKettle2.
  EXPECT_EQ(GetDeviceType(ids[0]).identifier, "D-LinkSwitch");
  EXPECT_EQ(GetDeviceType(ids[4]).identifier, "TP-LinkPlugHS110");
  EXPECT_EQ(GetDeviceType(ids[9]).identifier, "iKettle2");
  // All ten are clustered.
  for (const auto id : ids)
    EXPECT_NE(GetDeviceType(id).cluster, SimilarityCluster::kNone);
}

TEST(Catalog, ClusterMembersShareVendorEndpoints) {
  const auto& catalog = DeviceCatalog();
  for (const auto& a : catalog) {
    for (const auto& b : catalog) {
      if (a.id >= b.id || a.cluster == SimilarityCluster::kNone) continue;
      if (a.cluster == b.cluster) {
        EXPECT_EQ(a.vendor, b.vendor);
      }
    }
  }
}

TEST(Catalog, EveryTypeHasCloudEndpointAndOui) {
  for (const auto& info : DeviceCatalog()) {
    EXPECT_FALSE(info.cloud_endpoints.empty()) << info.identifier;
    const bool oui_nonzero =
        info.oui[0] != 0 || info.oui[1] != 0 || info.oui[2] != 0;
    EXPECT_TRUE(oui_nonzero) << info.identifier;
  }
}

TEST(Profiles, EveryTypeHasSetupAndStandbyProfiles) {
  for (std::size_t t = 0; t < DeviceTypeCount(); ++t) {
    const auto setup = GetSetupProfile(static_cast<DeviceTypeId>(t));
    EXPECT_FALSE(setup.script.empty()) << t;
    EXPECT_FALSE(setup.persona.dhcp_hostname.empty()) << t;
    const auto standby = GetStandbyProfile(static_cast<DeviceTypeId>(t));
    EXPECT_FALSE(standby.script.empty()) << t;
  }
}

TEST(Profiles, FirmwareUpdateChangesScript) {
  for (const DeviceTypeId t : {0, 17, 25}) {
    const auto factory = GetSetupProfile(t, FirmwareVersion::kFactory);
    const auto updated = GetSetupProfile(t, FirmwareVersion::kUpdated);
    EXPECT_GT(updated.script.size(), factory.script.size()) << t;
  }
}

TEST(Simulator, EpisodeProducesParsableTraffic) {
  DeviceSimulator simulator(1);
  const auto episode = simulator.RunSetupEpisode(FindDeviceType("HueBridge"));
  EXPECT_FALSE(episode.trace.empty());
  const auto packets = episode.trace.Parse();
  EXPECT_EQ(packets.size(), episode.trace.size())
      << "every simulated frame must be parsable";
  // The episode contains traffic both from the device and towards it.
  bool from_device = false, to_device = false;
  for (const auto& p : packets) {
    if (p.src_mac == episode.device_mac) from_device = true;
    if (p.dst_mac == episode.device_mac) to_device = true;
  }
  EXPECT_TRUE(from_device);
  EXPECT_TRUE(to_device);
}

TEST(Simulator, DeviceMacUsesVendorOui) {
  DeviceSimulator simulator(2);
  const auto type = FindDeviceType("TP-LinkPlugHS110");
  const auto episode = simulator.RunSetupEpisode(type);
  const auto& oui = GetDeviceType(type).oui;
  EXPECT_EQ(episode.device_mac.octets()[0], oui[0]);
  EXPECT_EQ(episode.device_mac.octets()[1], oui[1]);
  EXPECT_EQ(episode.device_mac.octets()[2], oui[2]);
}

TEST(Simulator, TimestampsAreMonotonic) {
  DeviceSimulator simulator(3);
  const auto episode = simulator.RunSetupEpisode(0);
  std::uint64_t last = 0;
  for (const auto& frame : episode.trace.frames()) {
    EXPECT_GE(frame.timestamp_ns, last);
    last = frame.timestamp_ns;
  }
}

TEST(Simulator, SameSeedReproducesIdenticalBytes) {
  DeviceSimulator a(77), b(77);
  const auto ea = a.RunSetupEpisode(5);
  const auto eb = b.RunSetupEpisode(5);
  ASSERT_EQ(ea.trace.size(), eb.trace.size());
  for (std::size_t i = 0; i < ea.trace.size(); ++i)
    EXPECT_EQ(ea.trace.frames()[i].bytes, eb.trace.frames()[i].bytes);
}

TEST(Simulator, DifferentSeedsVary) {
  DeviceSimulator a(1), b(2);
  const auto fa = DeviceSimulator::ExtractFingerprint(a.RunSetupEpisode(0));
  const auto fb = DeviceSimulator::ExtractFingerprint(b.RunSetupEpisode(0));
  // Same type, different episodes: fingerprints are similar but the raw
  // traces almost surely differ in some feature (sizes/jitter).
  EXPECT_FALSE(fa.empty());
  EXPECT_FALSE(fb.empty());
}

TEST(Simulator, FingerprintNonEmptyForAllTypes) {
  DeviceSimulator simulator(4);
  for (std::size_t t = 0; t < DeviceTypeCount(); ++t) {
    const auto episode =
        simulator.RunSetupEpisode(static_cast<DeviceTypeId>(t));
    const auto fp = DeviceSimulator::ExtractFingerprint(episode);
    EXPECT_GE(fp.size(), 5u) << GetDeviceType(static_cast<int>(t)).identifier;
  }
}

TEST(Simulator, SetupTraceSurvivesPcapRoundTrip) {
  DeviceSimulator simulator(5);
  const auto episode = simulator.RunSetupEpisode(8);
  const auto restored =
      capture::Trace::FromPcap(capture::EncodePcap(episode.trace.frames()));
  ASSERT_TRUE(restored.has_value());
  ASSERT_EQ(restored->size(), episode.trace.size());
  // Fingerprints extracted pre- and post-pcap must agree (timestamps lose
  // sub-microsecond precision, which the features never see).
  std::vector<net::ParsedPacket> device_packets;
  for (const auto& p : restored->Parse())
    if (p.src_mac == episode.device_mac) device_packets.push_back(p);
  const auto fp_restored =
      features::Fingerprint::FromPackets(device_packets);
  const auto fp_direct = DeviceSimulator::ExtractFingerprint(episode);
  EXPECT_EQ(fp_restored, fp_direct);
}

TEST(Simulator, StandbyEpisodeSlowerThanSetup) {
  DeviceSimulator simulator(6);
  const auto standby = simulator.RunStandbyEpisode(0);
  ASSERT_GE(standby.trace.size(), 2u);
  const auto& frames = standby.trace.frames();
  const auto span = frames.back().timestamp_ns - frames.front().timestamp_ns;
  EXPECT_GT(span, 10'000'000'000ull);  // heartbeats are seconds apart
}

TEST(Simulator, MulticastUsersEmitIgmpJoinsWithRouterAlert) {
  // mDNS/SSDP-speaking devices join their multicast groups via IGMP first;
  // those reports carry the Router Alert IP option (Table I feature).
  DeviceSimulator simulator(11);
  const auto episode = simulator.RunSetupEpisode(FindDeviceType("HueBridge"));
  bool igmp_with_router_alert = false;
  std::size_t igmp_count = 0;
  for (const auto& p : episode.trace.Parse()) {
    if (p.src_mac != episode.device_mac) continue;
    if (p.ip_opt_router_alert) {
      igmp_with_router_alert = true;
      ++igmp_count;
    }
  }
  EXPECT_TRUE(igmp_with_router_alert);
  // One join per distinct group (HueBridge uses both mDNS and SSDP).
  EXPECT_EQ(igmp_count, 2u);

  // A device that never uses multicast sends no IGMP.
  const auto aria = simulator.RunSetupEpisode(FindDeviceType("Aria"));
  for (const auto& p : aria.trace.Parse()) {
    if (p.src_mac == aria.device_mac) {
      EXPECT_FALSE(p.ip_opt_router_alert);
    }
  }
}

TEST(Simulator, StandbyDatasetMatchesSetupShape) {
  const auto standby = GenerateStandbyFingerprintDataset(2, 5);
  EXPECT_EQ(standby.size(), 2 * DeviceTypeCount());
  for (const auto& fp : standby.fingerprints) EXPECT_FALSE(fp.empty());
}

TEST(GenerateDataset, ShapeMatchesPaper) {
  const auto dataset = GenerateFingerprintDataset(3, 11);
  EXPECT_EQ(dataset.size(), 3 * DeviceTypeCount());
  EXPECT_EQ(dataset.fingerprints.size(), dataset.labels.size());
  EXPECT_EQ(dataset.fixed.size(), dataset.labels.size());
  // Labels cover every type exactly 3 times.
  std::vector<int> counts(DeviceTypeCount(), 0);
  for (int label : dataset.labels) counts[static_cast<std::size_t>(label)]++;
  for (int count : counts) EXPECT_EQ(count, 3);
}

}  // namespace
}  // namespace sentinel::devices
