// Seeded input generator for the fleet benchmark (perfbench/README.md).
//
//   fleetgen <fleet-cold|fleet-update> <seed> <out-dir>   one workload's inputs
//   fleetgen golden <out-dir>              every image the generator can
//                                          emit (for recording digests)
//
// Every image is named by a key `<corpus>-<id>-v<variant>[-e<edit>]`:
//   corpus   std (Table I), mem (memory-staging profiles)
//   variant  0..kVariants-1, the profile re-synthesized under a derived seed
//   edit     1..kEdits, one dead self-copy appended to one local function of
//            the device-cloud executable (the cache-incrementality idiom)
// The key space is finite, so the report digest of every image a seed can
// draw is recorded once per commit (golden_digests.json).
//
// A workload writes `<out-dir>/images/<key>/` for each image it uses, a
// `workload.json` naming the image lists, and for fleet-cold the SDK
// component registry its traced run matches against. The same seed writes
// byte-identical files.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "core/sdk_registry.h"
#include "firmware/serializer.h"
#include "firmware/synthesizer.h"
#include "support/json.h"
#include "support/rng.h"
#include "support/strings.h"

namespace {

using namespace firmres;
namespace fsys = std::filesystem;

constexpr int kVariants = 16;
constexpr int kEdits = 2;

// Fleet sizes. fleet-cold is the §V-E batch run at fleet size; fleet-update
// is smaller because filling an empty cache is quadratic in its entry count
// (README.md, "cache-store finding"), and its set-up fills it three times.
constexpr int kColdCopies = 8;
constexpr int kUpdateCopies = 2;
// Version B changes 8 images, alternately a one-function edit and a
// re-synthesis.
constexpr std::size_t kChangeStride = 3;

const char* workload_why(const std::string& workload) {
  if (workload == "fleet-cold")
    return "Batch analyze of a re-synthesized Table I + memory-staging fleet "
           "with no cache or registry: every analysis layer, load and emit "
           "do full work.";
  return "Version B of a fleet analyzed over the cache filled by version A: "
         "cache reads and stores beside load and emit, analysis layers "
         "mostly skipped (the no-change control for analysis optimisations).";
}

struct Key {
  std::string corpus;
  int id = 0;
  int variant = 0;
  int edit = 0;

  std::string str() const {
    std::string s = support::format("%s-%02d-v%02d", corpus.c_str(), id,
                                    variant);
    if (edit > 0) s += support::format("-e%d", edit);
    return s;
  }
};

std::vector<fw::DeviceProfile> corpus_profiles(const std::string& corpus) {
  if (corpus == "std") return fw::standard_corpus();
  // Only the staging rows: the corpus's control rows are plain Table I
  // profiles, already drawn from "std".
  std::vector<fw::DeviceProfile> out;
  for (fw::DeviceProfile& p : fw::memory_corpus())
    if (p.memory_indirection) out.push_back(std::move(p));
  return out;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  support::Rng rng(a ^ (b * 0x9E3779B97F4A7C15ULL));
  return rng.next_u64();
}

/// Append a dead self-copy op to one local function of the device-cloud
/// executable — the smallest IR content change.
void apply_edit(fw::FirmwareImage& image, int edit) {
  ir::Program* prog = nullptr;
  for (fw::FirmwareFile& f : image.files)
    if (f.path == image.truth.device_cloud_executable) prog = f.program.get();
  if (prog == nullptr) return;  // script-based device: nothing to edit
  const std::vector<ir::Function*> locals = prog->local_functions();
  const std::size_t pick = static_cast<std::size_t>(
      mix(image.profile.seed, static_cast<std::uint64_t>(edit)) %
      locals.size());
  for (std::size_t k = 0; k < locals.size(); ++k) {
    ir::Function& fn = *locals[(pick + k) % locals.size()];
    if (fn.blocks().empty()) continue;
    std::optional<ir::VarNode> v;
    if (!fn.params().empty()) v = fn.params().front();
    for (const ir::PcodeOp* op : fn.ops_in_order()) {
      if (v.has_value()) break;
      if (op->output.has_value()) v = *op->output;
      else if (!op->inputs.empty()) v = op->inputs.front();
    }
    if (!v.has_value()) continue;
    ir::PcodeOp op;
    op.address = 0xCAFE000000ULL + static_cast<std::uint64_t>(edit);
    op.opcode = ir::OpCode::Copy;
    op.output = *v;
    op.inputs = prog->operand_list({*v});
    fn.blocks().front().ops.push_back(op);
    return;
  }
}

fw::FirmwareImage make_image(const Key& key) {
  for (fw::DeviceProfile p : corpus_profiles(key.corpus)) {
    if (p.id != key.id) continue;
    if (key.variant > 0)
      p.seed = mix(p.seed, static_cast<std::uint64_t>(key.variant));
    fw::FirmwareImage image = fw::synthesize(p);
    if (key.edit > 0) apply_edit(image, key.edit);
    return image;
  }
  std::fprintf(stderr, "fleetgen: no profile for %s\n", key.str().c_str());
  std::exit(1);
}

/// Writes each key's image once under <out>/images/.
class ImageWriter {
 public:
  explicit ImageWriter(fsys::path out) : out_(std::move(out)) {}

  std::string write(const Key& key) {
    const std::string name = key.str();
    const std::string rel = "images/" + name;
    if (std::find(written_.begin(), written_.end(), name) == written_.end()) {
      fw::save_image(make_image(key), out_ / rel);
      written_.push_back(name);
    }
    return rel;
  }

 private:
  fsys::path out_;
  std::vector<std::string> written_;
};

/// `copies` distinct variants per profile of each corpus, drawn by `rng`.
std::vector<Key> draw_fleet(support::Rng& rng,
                            const std::vector<std::string>& corpora,
                            int copies) {
  std::vector<std::vector<Key>> per_profile;
  for (const std::string& corpus : corpora) {
    for (const fw::DeviceProfile& p : corpus_profiles(corpus)) {
      std::vector<int> variants(kVariants);
      for (int v = 0; v < kVariants; ++v) variants[v] = v;
      rng.shuffle(variants);
      std::vector<Key> keys;
      for (int c = 0; c < copies; ++c)
        keys.push_back(Key{corpus, p.id, variants[c], 0});
      per_profile.push_back(std::move(keys));
    }
  }
  // Copy-major order: each copy of the corpus is one contiguous run.
  std::vector<Key> fleet;
  for (int c = 0; c < copies; ++c)
    for (const std::vector<Key>& keys : per_profile) fleet.push_back(keys[c]);
  return fleet;
}

support::Json key_list(ImageWriter& writer, const std::vector<Key>& keys) {
  support::JsonArray out;
  for (const Key& k : keys) {
    support::Json entry{support::JsonObject{}};
    entry.set("key", k.str());
    entry.set("dir", writer.write(k));
    entry.set("device_id", k.id);
    out.push_back(std::move(entry));
  }
  return support::Json(std::move(out));
}

void write_text(const fsys::path& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) {
    std::fprintf(stderr, "fleetgen: cannot write %s\n", path.c_str());
    std::exit(1);
  }
}

int generate(const std::string& workload, std::uint64_t seed,
             const fsys::path& out) {
  support::Rng rng(mix(seed, 0x666c656574ULL));  // "fleet"
  ImageWriter writer(out);
  support::Json doc{support::JsonObject{}};
  doc.set("workload", workload);
  doc.set("seed", static_cast<double>(seed));
  doc.set("why", workload_why(workload));
  if (workload == "fleet-cold") {
    doc.set("fleet", key_list(writer, draw_fleet(rng, {"std", "mem"},
                                                 kColdCopies)));
    const std::string error =
        core::build_sdk_registry().save((out / "registry.json").string());
    if (!error.empty()) {
      std::fprintf(stderr, "fleetgen: %s\n", error.c_str());
      return 1;
    }
    doc.set("registry", "registry.json");
  } else if (workload == "fleet-update") {
    const std::vector<Key> a = draw_fleet(rng, {"std", "mem"}, kUpdateCopies);
    std::vector<Key> b = a;
    // Changed images: one slot of every kChangeStride-th profile (a fixed
    // set), so seeds vary which copy, edit and variant change, not how much
    // analysis the update costs. The fixed profiles have an executable.
    const std::size_t profiles = a.size() / kUpdateCopies;
    std::vector<std::size_t> slots;
    for (std::size_t p = 1; p < profiles; p += kChangeStride)
      slots.push_back(p + profiles * static_cast<std::size_t>(
                                         rng.uniform(0, kUpdateCopies - 1)));
    support::JsonObject changes;
    for (std::size_t c = 0; c < slots.size(); ++c) {
      Key& k = b[slots[c]];
      if (c % 2 == 0) {
        k.edit = 1 + static_cast<int>(rng.uniform(0, kEdits - 1));
        changes.emplace_back(k.str(), support::Json("fn-edit"));
      } else {
        // Re-synthesis under a variant no slot of this profile uses in A.
        std::vector<int> unused;
        for (int v = 0; v < kVariants; ++v) {
          bool used = false;
          for (const Key& other : a)
            used |= other.corpus == k.corpus && other.id == k.id &&
                    other.variant == v;
          if (!used) unused.push_back(v);
        }
        k.variant = unused[static_cast<std::size_t>(
            rng.uniform(0, static_cast<std::int64_t>(unused.size()) - 1))];
        changes.emplace_back(k.str(), support::Json("resynth"));
      }
    }
    doc.set("version_a", key_list(writer, a));
    doc.set("version_b", key_list(writer, b));
    doc.set("changes", support::Json(std::move(changes)));
  } else {
    std::fprintf(stderr, "fleetgen: unknown workload '%s'\n",
                 workload.c_str());
    return 2;
  }
  write_text(out / "workload.json", doc.dump(true) + "\n");
  return 0;
}

/// Every key a workload can draw: all variants of every profile, and every
/// edit of those with a device-cloud executable.
int golden(const fsys::path& out) {
  ImageWriter writer(out);
  std::vector<Key> keys;
  for (const std::string corpus : {"std", "mem"}) {
    for (const fw::DeviceProfile& p : corpus_profiles(corpus)) {
      for (int v = 0; v < kVariants; ++v) {
        keys.push_back(Key{corpus, p.id, v, 0});
        if (p.script_based) continue;
        for (int e = 1; e <= kEdits; ++e) keys.push_back(Key{corpus, p.id, v, e});
      }
    }
  }
  support::Json doc{support::JsonObject{}};
  doc.set("images", key_list(writer, keys));
  write_text(out / "golden.json", doc.dump(true) + "\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "golden") return golden(args[1]);
  if (args.size() != 3) {
    std::fprintf(stderr,
                 "usage: fleetgen <fleet-cold|fleet-update> <seed> "
                 "<out-dir>\n       fleetgen golden <out-dir>\n");
    return 2;
  }
  std::uint64_t seed = 0;
  try {
    seed = std::stoull(args[1]);
  } catch (const std::exception&) {
    std::fprintf(stderr, "fleetgen: bad seed '%s'\n", args[1].c_str());
    return 2;
  }
  return generate(args[0], seed, args[2]);
}
