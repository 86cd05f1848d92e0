// Serialization tests: program JSON round trips, the one-pass program
// decoder's contract (docs/IR.md "Decoding": equivalence with the
// synthesized programs, free key order, typed errors), firmware-image
// directory round trips (including analysis equivalence), and
// malformed-input failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "core/pipeline.h"
#include "firmware/serializer.h"
#include "firmware/synthesizer.h"
#include "ir/serializer.h"
#include "support/rng.h"

namespace firmres {
namespace {

namespace fsys = std::filesystem;

class TempDir {
 public:
  TempDir() {
    path_ = fsys::temp_directory_path() /
            ("firmres-test-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter_++));
    fsys::create_directories(path_);
  }
  ~TempDir() { fsys::remove_all(path_); }
  const fsys::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fsys::path path_;
};

TEST(ProgramSerializer, RoundTripIsStable) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(11));
  const auto* exec = image.file(image.truth.device_cloud_executable);
  const support::Json doc = ir::program_to_json(*exec->program);
  const auto restored = ir::program_from_json(doc.dump());
  // Re-serializing the restored program must yield the identical document.
  EXPECT_EQ(ir::program_to_json(*restored).dump(), doc.dump());
}

TEST(ProgramSerializer, PreservesStructure) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(5));
  const auto* exec = image.file(image.truth.device_cloud_executable);
  const auto restored =
      ir::program_from_json(ir::program_to_json(*exec->program).dump());
  EXPECT_EQ(restored->name(), exec->program->name());
  EXPECT_EQ(restored->total_op_count(), exec->program->total_op_count());
  EXPECT_EQ(restored->local_functions().size(),
            exec->program->local_functions().size());
  EXPECT_EQ(restored->data().string_count(),
            exec->program->data().string_count());
  // Entry addresses (referenced by func_addr constants) reproduce exactly.
  for (const ir::Function* fn : exec->program->functions()) {
    const ir::Function* rfn = restored->function(fn->name());
    ASSERT_NE(rfn, nullptr);
    EXPECT_EQ(rfn->entry_address(), fn->entry_address());
    EXPECT_EQ(rfn->is_import(), fn->is_import());
    EXPECT_EQ(rfn->op_count(), fn->op_count());
  }
}

TEST(ProgramSerializer, RejectsMalformedDocuments) {
  using support::ParseError;
  EXPECT_THROW(ir::program_from_json("[]"), ParseError);
  EXPECT_THROW(ir::program_from_json("{\"format\":\"x\"}"), ParseError);
  EXPECT_THROW(
      ir::program_from_json(R"({"format":"firmres-program","name":"p"})"),
      ParseError);  // missing strings/functions
  EXPECT_THROW(
      ir::program_from_json(
          R"({"format":"firmres-program","name":"p","strings":[["x"]],"functions":[]})"),
      ParseError);  // bad string entry
}

TEST(ProgramSerializer, RejectsUnknownOpcodeAndSpace) {
  const char* doc = R"({
    "format":"firmres-program","name":"p","strings":[],
    "functions":[{"name":"f","entry":256,"import":false,"params":[],
      "symbols":[],"blocks":[{"id":0,"succ":[],
        "ops":[{"addr":1,"op":"NOT_AN_OP","in":[]}]}]}]})";
  EXPECT_THROW(ir::program_from_json(doc), support::ParseError);
}

// The decoded program must be the synthesized one, not only re-encode to
// the same bytes: the document does not carry FuncIds or the resolved
// callee_fn / lib_id, so those are checked op by op.
void expect_same_program(const ir::Program& want, const ir::Program& got,
                         int* forward_calls) {
  EXPECT_EQ(ir::program_to_json(got).dump(), ir::program_to_json(want).dump());
  ASSERT_EQ(got.functions().size(), want.functions().size());
  for (std::size_t f = 0; f < want.functions().size(); ++f) {
    const ir::Function& wf = *want.functions()[f];
    const ir::Function& gf = *got.functions()[f];
    ASSERT_EQ(gf.name(), wf.name());
    EXPECT_EQ(gf.id(), wf.id());
    EXPECT_EQ(gf.entry_address(), wf.entry_address());
    ASSERT_EQ(gf.blocks().size(), wf.blocks().size());
    for (std::size_t b = 0; b < wf.blocks().size(); ++b) {
      const auto& wops = wf.blocks()[b].ops;
      const auto& gops = gf.blocks()[b].ops;
      ASSERT_EQ(gops.size(), wops.size());
      for (std::size_t k = 0; k < wops.size(); ++k) {
        EXPECT_EQ(gops[k].callee, wops[k].callee);
        EXPECT_EQ(gops[k].callee_fn, wops[k].callee_fn)
            << want.name() << " " << wf.name() << " calls " << wops[k].callee;
        EXPECT_EQ(gops[k].lib_id, wops[k].lib_id);
        if (wops[k].callee_fn != ir::kNoFunc && wops[k].callee_fn > wf.id())
          ++*forward_calls;
      }
    }
  }
}

TEST(ProgramDecoder, LoadImageReproducesEverySynthesizedProgram) {
  std::vector<fw::FirmwareImage> images = fw::synthesize_corpus();
  for (auto* more : {&fw::synthesize_memory_corpus, &fw::synthesize_sdk_corpus})
    for (fw::FirmwareImage& image : more()) images.push_back(std::move(image));
  int programs = 0;
  int forward_calls = 0;
  for (const fw::FirmwareImage& image : images) {
    TempDir dir;
    fw::save_image(image, dir.path());
    const fw::FirmwareImage restored = fw::load_image(dir.path());
    ASSERT_EQ(restored.files.size(), image.files.size());
    for (std::size_t i = 0; i < image.files.size(); ++i) {
      if (image.files[i].program == nullptr) continue;
      ASSERT_NE(restored.files[i].program, nullptr);
      expect_same_program(*image.files[i].program, *restored.files[i].program,
                          &forward_calls);
      ++programs;
    }
  }
  EXPECT_GT(programs, 100);
  // Imports are registered at their first call, after the caller: calls to
  // functions defined later in the document are the common case.
  EXPECT_GT(forward_calls, 1000);
}

// Rewrite every object of `doc` with its members in a new order: reversed
// (so the top level reads "functions" before "name" and each function
// reads "blocks" before "name" and "import") or shuffled by `rng`.
support::Json reorder(const support::Json& doc, support::Rng* rng) {
  if (doc.is_array()) {
    support::JsonArray out;
    for (const support::Json& v : doc.as_array()) out.push_back(reorder(v, rng));
    return support::Json(std::move(out));
  }
  if (!doc.is_object()) return doc;
  support::JsonObject out;
  for (const auto& [key, value] : doc.as_object())
    out.emplace_back(key, reorder(value, rng));
  if (rng != nullptr) rng->shuffle(out);
  else std::reverse(out.begin(), out.end());
  out.emplace_back("unknown", support::Json(support::JsonArray{1, "x"}));
  return support::Json(std::move(out));
}

TEST(ProgramDecoder, AnyKeyOrderDecodes) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(7));
  support::Rng rng(16);
  int forward_calls = 0;
  for (const ir::Program* program : image.executables()) {
    const support::Json doc = ir::program_to_json(*program);
    for (support::Rng* order : {static_cast<support::Rng*>(nullptr), &rng}) {
      const std::string text = reorder(doc, order).dump();
      ASSERT_NE(text, doc.dump());
      expect_same_program(*program, *ir::program_from_json(text),
                          &forward_calls);
    }
  }
  EXPECT_GT(forward_calls, 0);
}

// A program document small enough to edit by hand: f calls g, which is
// defined after it.
constexpr const char* kTwoFunctions = R"({
  "format":"firmres-program","version":1,"name":"p","strings":[[4194304,"k"]],
  "functions":[
    {"name":"f","entry":4352,"import":false,"params":[],
     "symbols":[{"var":["register",0,4],"type":"Local","name":"x","id":1}],
     "blocks":[{"id":0,"succ":[],
       "ops":[{"addr":16,"op":"CALL","in":[["const",4608,4]],"callee":"g"}]}]},
    {"name":"g","entry":4608,"import":false,"params":[],"symbols":[],
     "blocks":[]}]})";

std::string replace_once(std::string text, const std::string& from,
                         const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  return text.replace(at, from.size(), to);
}

// Decoding `text` must raise ParseError (never another exception) whose
// message contains every string of `expect`.
void expect_parse_error(const std::string& text,
                        std::initializer_list<const char*> expect) {
  try {
    (void)ir::program_from_json(text);
    ADD_FAILURE() << "decoded: " << text;
  } catch (const support::ParseError& e) {
    for (const char* part : expect)
      EXPECT_NE(std::string(e.what()).find(part), std::string::npos)
          << e.what() << " lacks " << part;
  }
}

TEST(ProgramDecoder, ForwardCallResolvesToTheLaterFunction) {
  const auto program = ir::program_from_json(kTwoFunctions);
  const ir::PcodeOp& call = program->function("f")->blocks()[0].ops[0];
  EXPECT_EQ(call.callee, "g");
  EXPECT_EQ(call.callee_fn, program->function_id("g"));
  EXPECT_EQ(call.callee_fn, 1u);
}

TEST(ProgramDecoder, DuplicateFieldsAreParseErrors) {
  const std::string doc = kTwoFunctions;
  for (const auto& [from, to] : std::vector<std::pair<std::string, std::string>>{
           {R"("name":"p",)", R"("name":"p","name":"q",)"},
           {R"("entry":4352,)", R"("entry":4352,"entry":4352,)"},
           {R"("id":1})", R"("id":1,"id":1})"},
           {R"("succ":[],)", R"("succ":[],"succ":[],)"},
           {R"("addr":16,)", R"("addr":16,"addr":16,)"},
       }) {
    const std::string field = from.substr(1, from.find('"', 1) - 1);
    expect_parse_error(replace_once(doc, from, to),
                       {("'" + field + "'").c_str(), "duplicate", "offset"});
  }
  // A repeated unknown member is ignored, as the DOM decoder did.
  EXPECT_NO_THROW((void)ir::program_from_json(
      replace_once(doc, R"("version":1,)", R"("version":1,"version":2,)")));
  // Two functions of one name are a ParseError, not a failed invariant.
  expect_parse_error(replace_once(doc, R"("name":"g")", R"("name":"f")"),
                     {"duplicate function 'f'"});
}

TEST(ProgramDecoder, WrongTypedMissingAndOutOfRangeFieldsAreParseErrors) {
  const std::string doc = kTwoFunctions;
  const auto edit = [&](const char* from, const char* to) {
    return replace_once(doc, from, to);
  };
  expect_parse_error(edit(R"("addr":16)", R"("addr":"16")"),
                     {"'addr' at offset", "expected a number"});
  expect_parse_error(edit(R"("import":false,"params")", R"("import":0,"params")"),
                     {"'import' at offset", "expected a bool"});
  expect_parse_error(edit(R"("callee":"g")", R"("callee":7)"),
                     {"'callee' at offset", "expected a string"});
  expect_parse_error(edit(R"("in":[["const")", R"("in":[[1)"),
                     {"'in' at offset", "expected a string"});
  expect_parse_error(edit(R"("succ":[])", R"("succ":{})"),
                     {"'succ' at offset", "expected an array"});
  expect_parse_error(edit(R"(["register",0,4])", R"(["register",0])"),
                     {"'var' at offset", "[space, offset, size]"});
  expect_parse_error(edit(R"("type":"Local",)", ""),
                     {"missing field 'type'", "symbol at offset"});
  expect_parse_error(edit(R"("addr":16,)", ""),
                     {"missing field 'addr'", "op at offset"});
  expect_parse_error(edit(R"("addr":16)", R"("addr":-16)"),
                     {"'addr' at offset", "out of range"});
  expect_parse_error(edit(R"(["register",0,4])", R"(["register",0,4294967296])"),
                     {"'var' at offset", "out of range"});
  expect_parse_error(edit(R"("entry":4352)", R"("entry":1e300)"),
                     {"'entry' at offset", "out of range"});
  expect_parse_error(edit(R"({"id":0,)", R"({"id":-1,)"),
                     {"'id' at offset", "out of range"});
  // In-range numbers are cast from double as before: 16.75 is address 16.
  EXPECT_EQ(ir::program_from_json(edit(R"("addr":16)", R"("addr":16.75)"))
                ->function("f")->blocks()[0].ops[0].address,
            16u);
}

TEST(DataSegment, InternAtRestoresOffsets) {
  ir::DataSegment seg;
  seg.intern_at(0x400010, "hello");
  EXPECT_EQ(seg.string_at(0x400010).value(), "hello");
  // Subsequent interning continues past the restored region.
  const auto next = seg.intern("world");
  EXPECT_GT(next, 0x400010u);
}

TEST(ImageSerializer, ManifestRoundTripsProfileIdentityTruth) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(17));
  TempDir dir;
  fw::save_image(image, dir.path());
  const fw::FirmwareImage restored = fw::load_image(dir.path());

  EXPECT_EQ(restored.profile.id, image.profile.id);
  EXPECT_EQ(restored.profile.vendor, image.profile.vendor);
  EXPECT_EQ(restored.profile.seed, image.profile.seed);
  EXPECT_EQ(restored.identity.mac, image.identity.mac);
  EXPECT_EQ(restored.identity.dev_secret, image.identity.dev_secret);
  EXPECT_EQ(restored.nvram, image.nvram);
  ASSERT_EQ(restored.truth.messages.size(), image.truth.messages.size());
  for (std::size_t i = 0; i < image.truth.messages.size(); ++i) {
    const fw::MessageTruth& a = image.truth.messages[i];
    const fw::MessageTruth& b = restored.truth.messages[i];
    EXPECT_EQ(a.spec.name, b.spec.name);
    EXPECT_EQ(a.spec.endpoint_path, b.spec.endpoint_path);
    EXPECT_EQ(a.spec.vulnerable, b.spec.vulnerable);
    EXPECT_EQ(a.delivery_address, b.delivery_address);
    EXPECT_EQ(a.noise_fields, b.noise_fields);
    ASSERT_EQ(a.spec.fields.size(), b.spec.fields.size());
    for (std::size_t j = 0; j < a.spec.fields.size(); ++j) {
      EXPECT_EQ(a.spec.fields[j].key, b.spec.fields[j].key);
      EXPECT_EQ(a.spec.fields[j].primitive, b.spec.fields[j].primitive);
      EXPECT_EQ(a.spec.fields[j].value, b.spec.fields[j].value);
    }
  }
}

TEST(ImageSerializer, AnalysisEquivalentAfterRoundTrip) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(19));
  TempDir dir;
  fw::save_image(image, dir.path());
  const fw::FirmwareImage restored = fw::load_image(dir.path());

  const core::KeywordModel model;
  const core::Pipeline pipeline(model);
  const core::DeviceAnalysis a = pipeline.analyze(image);
  const core::DeviceAnalysis b = pipeline.analyze(restored);
  EXPECT_EQ(a.device_cloud_executable, b.device_cloud_executable);
  ASSERT_EQ(a.messages.size(), b.messages.size());
  for (std::size_t i = 0; i < a.messages.size(); ++i) {
    EXPECT_EQ(a.messages[i].delivery_address,
              b.messages[i].delivery_address);
    EXPECT_EQ(a.messages[i].endpoint_path, b.messages[i].endpoint_path);
    ASSERT_EQ(a.messages[i].fields.size(), b.messages[i].fields.size());
    for (std::size_t j = 0; j < a.messages[i].fields.size(); ++j) {
      EXPECT_EQ(a.messages[i].fields[j].semantics,
                b.messages[i].fields[j].semantics);
      EXPECT_EQ(a.messages[i].fields[j].key, b.messages[i].fields[j].key);
    }
  }
  EXPECT_EQ(a.flaws.size(), b.flaws.size());
}

TEST(ImageSerializer, ScriptDeviceRoundTrip) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(21));
  TempDir dir;
  fw::save_image(image, dir.path());
  const fw::FirmwareImage restored = fw::load_image(dir.path());
  EXPECT_TRUE(restored.truth.device_cloud_executable.empty());
  const fw::FirmwareFile* sh = restored.file("/usr/sbin/cloud_report.sh");
  ASSERT_NE(sh, nullptr);
  EXPECT_EQ(sh->text, image.file("/usr/sbin/cloud_report.sh")->text);
}

TEST(ImageSerializer, TruthSectionOptional) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(6));
  support::Json manifest = fw::manifest_to_json(image);
  // A real unpacked image carries no oracle: strip it and reload.
  TempDir dir;
  fw::save_image(image, dir.path());
  auto& obj = manifest.as_object();
  obj.erase(std::remove_if(obj.begin(), obj.end(),
                           [](const auto& kv) { return kv.first == "truth"; }),
            obj.end());
  {
    std::ofstream out(dir.path() / "manifest.json");
    out << manifest.dump(true);
  }
  const fw::FirmwareImage restored = fw::load_image(dir.path());
  EXPECT_TRUE(restored.truth.messages.empty());
  // Analysis still runs.
  const core::KeywordModel model;
  const core::DeviceAnalysis analysis = core::Pipeline(model).analyze(restored);
  EXPECT_FALSE(analysis.messages.empty());
}

// Manifest fields of the wrong type or out of range are ParseErrors (they
// used to fail a FIRMRES_CHECK inside the JSON accessors).
TEST(ImageSerializer, WrongTypedManifestFieldsAreParseErrors) {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(6));
  TempDir dir;
  fw::save_image(image, dir.path());
  const support::Json good = fw::manifest_to_json(image);
  const auto edited = [&](const char* section, const char* key,
                          support::Json value) {
    support::Json manifest = good;
    for (auto& [name, part] : manifest.as_object())
      if (name == section) part.set(key, std::move(value));
    return manifest;
  };
  for (const support::Json& manifest :
       {edited("profile", "id", support::Json("6")),
        edited("profile", "num_messages", support::Json(-1)),
        edited("profile", "script_based", support::Json(0)),
        edited("profile", "noise_field_rate", support::Json(nullptr)),
        edited("nvram", "lan_hwaddr", support::Json(7))}) {
    std::ofstream(dir.path() / "manifest.json") << manifest.dump(true);
    EXPECT_THROW(fw::load_image(dir.path()), support::ParseError)
        << manifest.dump().substr(0, 200);
  }
}

TEST(ImageSerializer, MissingManifestThrows) {
  TempDir dir;
  EXPECT_THROW(fw::load_image(dir.path()), support::ParseError);
}

TEST(ImageSerializer, CorruptManifestThrows) {
  TempDir dir;
  {
    std::ofstream out(dir.path() / "manifest.json");
    out << "{\"format\":\"something-else\"}";
  }
  EXPECT_THROW(fw::load_image(dir.path()), support::ParseError);
}

}  // namespace
}  // namespace firmres
