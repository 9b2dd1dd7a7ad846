// lhmm_store — builds and manages the versioned mmap-able asset store that
// lhmm_serve/lhmm_fleet map as their shared data plane (src/store/format.h
// documents the file layout, src/store/generations.h the root layout).
//
//   lhmm_store build   --root DIR --gen N [--grid-rows R --grid-cols C
//                      --spacing S | --data PREFIX [--model PATH]]
//                      [--publish 1]
//   lhmm_store validate --root DIR --gen N          (or --file PATH)
//   lhmm_store publish  --root DIR --gen N          (validates first)
//   lhmm_store list     --root DIR
//   lhmm_store info     --root DIR --gen N          (or --file PATH)
//
// `build` serializes the heavy immutable assets — road network, grid index,
// and (with --data/--model) the trained LHMM weights — into one relocatable
// store-<gen>.lds under <root>/gen-<N>/, written with the atomic temp+rename
// protocol so a crashed build never leaves a file a swap could find. Nothing
// observes the new generation until `publish` (or --publish 1) atomically
// points <root>/CURRENT at it; a serving fleet picks it up via the
// `swap <gen>` verb, which re-validates every byte before flipping and keeps
// the old generation serving on any reject.
//
// `validate` runs exactly the consumer-side check (MappedStore::Open): magic,
// header CRC, format version, total-size torn-tail guard, TOC CRC, and every
// section's bounds + CRC. A corrupt store prints the typed file+offset error
// and exits nonzero — the same error a serving worker would log when
// rejecting it as a swap candidate.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <sys/stat.h>
#include <vector>

#include "core/strings.h"
#include "io/dataset_io.h"
#include "lhmm/trainer.h"
#include "network/generators.h"
#include "network/grid_index.h"
#include "store/generations.h"
#include "store/mapped_store.h"
#include "store/store_writer.h"

using namespace lhmm;  // NOLINT(build/namespaces): CLI driver.
namespace L = ::lhmm::lhmm;

namespace {

std::map<std::string, std::string> ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> out;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    out[key] = argv[i + 1];
  }
  return out;
}

std::string Get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback = "") {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

int GetInt(const std::map<std::string, std::string>& args,
           const std::string& key, int fallback) {
  int v = 0;
  return core::ParseInt(Get(args, key), &v) ? v : fallback;
}

double GetDouble(const std::map<std::string, std::string>& args,
                 const std::string& key, double fallback) {
  double v = 0.0;
  return core::ParseDouble(Get(args, key), &v) ? v : fallback;
}

int Usage() {
  fprintf(stderr,
          "usage: lhmm_store <build|validate|publish|list|info> [--root DIR]"
          " [--gen N] [--file PATH]\n"
          "  build: --root DIR --gen N [--grid-rows R --grid-cols C"
          " --spacing S | --data PREFIX [--model PATH]] [--publish 1]\n");
  return 2;
}

/// Resolves --file, or --root/--gen, into a store path. Empty on bad args.
std::string ResolveStorePath(const std::map<std::string, std::string>& args) {
  const std::string file = Get(args, "file");
  if (!file.empty()) return file;
  const std::string root = Get(args, "root");
  const int gen = GetInt(args, "gen", -1);
  if (root.empty() || gen < 0) return "";
  return store::StorePath(root, gen);
}

int Build(const std::map<std::string, std::string>& args) {
  const std::string root = Get(args, "root");
  const int64_t gen = GetInt(args, "gen", -1);
  if (root.empty() || gen < 0) return Usage();

  // The same world lhmm_serve builds in owned mode, so a store-backed worker
  // and an owned-mode worker agree byte for byte.
  network::RoadNetwork net;
  io::DatasetBundle bundle;
  std::vector<std::pair<std::string, std::string>> meta;
  const std::string data = Get(args, "data");
  if (!data.empty()) {
    auto loaded = io::LoadDatasetBundle(data);
    if (!loaded.ok()) {
      fprintf(stderr, "error: %s\n", loaded.status().ToString().c_str());
      return 1;
    }
    bundle = std::move(loaded).value();
    net = std::move(bundle.net);
    meta.emplace_back("source", "data:" + data);
  } else {
    const int rows = GetInt(args, "grid-rows", 10);
    const int cols = GetInt(args, "grid-cols", 10);
    const double spacing = GetDouble(args, "spacing", 200.0);
    net = network::GenerateGridNetwork(rows, cols, spacing);
    meta.emplace_back("source",
                      core::StrFormat("grid:%dx%d@%g", rows, cols, spacing));
  }
  network::GridIndex index(&net, 300.0);

  store::StoreWriter w;
  w.AddSection(store::kSectionNetwork, store::EncodeNetwork(net));
  w.AddSection(store::kSectionGrid, store::EncodeGridIndex(index));

  const std::string model_path = Get(args, "model");
  if (!data.empty() && !model_path.empty()) {
    // Loaded exactly as lhmm_serve loads it: default architecture and config.
    L::TrainInputs inputs;
    inputs.net = &net;
    inputs.index = &index;
    inputs.num_towers = static_cast<int>(bundle.towers.size());
    inputs.train = &bundle.train;
    auto model = L::LoadLhmm(inputs, model_path);
    if (!model.ok()) {
      fprintf(stderr, "error: %s\n", model.status().ToString().c_str());
      return 1;
    }
    w.AddSection(store::kSectionLhmm, store::EncodeLhmmWeights(**model));
    meta.emplace_back("model", model_path);
  }
  meta.emplace_back("nodes", std::to_string(net.num_nodes()));
  meta.emplace_back("segments", std::to_string(net.num_segments()));
  w.AddSection(store::kSectionMeta, store::EncodeMeta(meta));

  mkdir(root.c_str(), 0755);
  mkdir(store::GenerationDir(root, gen).c_str(), 0755);
  const std::string path = store::StorePath(root, gen);
  const uint64_t fingerprint = network::NetworkFingerprint(net);
  const core::Status written =
      w.Write(path, fingerprint, static_cast<uint64_t>(gen));
  if (!written.ok()) {
    fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  // Re-validate through the consumer path before reporting success (and
  // before any --publish): a store this tool claims to have built must be
  // swappable as-is.
  auto mapped = store::MappedStore::Open(path, fingerprint);
  if (!mapped.ok()) {
    fprintf(stderr, "error: self-check failed: %s\n",
            mapped.status().ToString().c_str());
    return 1;
  }
  printf("built %s: gen=%" PRId64 " bytes=%" PRId64 " fingerprint=%016" PRIx64
         "\n",
         path.c_str(), gen, (*mapped)->bytes(), fingerprint);
  if (GetInt(args, "publish", 0) != 0) {
    const core::Status published = store::PublishCurrent(root, gen);
    if (!published.ok()) {
      fprintf(stderr, "error: %s\n", published.ToString().c_str());
      return 1;
    }
    printf("published gen=%" PRId64 "\n", gen);
  }
  return 0;
}

int Validate(const std::map<std::string, std::string>& args) {
  const std::string path = ResolveStorePath(args);
  if (path.empty()) return Usage();
  auto mapped = store::MappedStore::Open(path);
  if (!mapped.ok()) {
    fprintf(stderr, "invalid: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  printf("ok %s: gen=%" PRIu64 " bytes=%" PRId64 " fingerprint=%016" PRIx64
         "\n",
         path.c_str(), (*mapped)->generation(), (*mapped)->bytes(),
         (*mapped)->fingerprint());
  return 0;
}

int Publish(const std::map<std::string, std::string>& args) {
  const std::string root = Get(args, "root");
  const int64_t gen = GetInt(args, "gen", -1);
  if (root.empty() || gen < 0) return Usage();
  // Publish is the commit point: never point CURRENT at bytes that do not
  // validate right now.
  auto mapped = store::MappedStore::Open(store::StorePath(root, gen));
  if (!mapped.ok()) {
    fprintf(stderr, "refusing to publish: %s\n",
            mapped.status().ToString().c_str());
    return 1;
  }
  const core::Status published = store::PublishCurrent(root, gen);
  if (!published.ok()) {
    fprintf(stderr, "error: %s\n", published.ToString().c_str());
    return 1;
  }
  printf("published gen=%" PRId64 "\n", gen);
  return 0;
}

int List(const std::map<std::string, std::string>& args) {
  const std::string root = Get(args, "root");
  if (root.empty()) return Usage();
  const auto current = store::ReadCurrent(root);
  for (const int64_t gen : store::ListGenerations(root)) {
    auto mapped = store::MappedStore::Open(store::StorePath(root, gen));
    if (mapped.ok()) {
      printf("gen=%" PRId64 " bytes=%" PRId64 " fingerprint=%016" PRIx64 "%s\n",
             gen, (*mapped)->bytes(), (*mapped)->fingerprint(),
             current.ok() && *current == gen ? " CURRENT" : "");
    } else {
      printf("gen=%" PRId64 " INVALID (%s)\n", gen,
             mapped.status().ToString().c_str());
    }
  }
  return 0;
}

int Info(const std::map<std::string, std::string>& args) {
  const std::string path = ResolveStorePath(args);
  if (path.empty()) return Usage();
  auto mapped = store::MappedStore::Open(path);
  if (!mapped.ok()) {
    fprintf(stderr, "invalid: %s\n", mapped.status().ToString().c_str());
    return 1;
  }
  const auto& s = **mapped;
  printf("%s\n  gen=%" PRIu64 " bytes=%" PRId64 " fingerprint=%016" PRIx64
         "\n",
         path.c_str(), s.generation(), s.bytes(), s.fingerprint());
  for (const uint32_t tag :
       {store::kSectionMeta, store::kSectionNetwork, store::kSectionGrid,
        store::kSectionLhmm, store::kSectionSeq2Seq}) {
    auto view = s.Section(tag);
    if (!view.ok()) continue;
    printf("  section %s: offset=%" PRIu64 " bytes=%" PRIu64 "\n",
           store::TagName(tag).c_str(), view->offset, view->bytes);
  }
  for (const auto& [key, value] : s.Meta()) {
    printf("  meta %s=%s\n", key.c_str(), value.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string verb = argv[1];
  const auto args = ParseArgs(argc, argv);
  if (verb == "build") return Build(args);
  if (verb == "validate") return Validate(args);
  if (verb == "publish") return Publish(args);
  if (verb == "list") return List(args);
  if (verb == "info") return Info(args);
  return Usage();
}
