// Corpus-wide identity tests for §IV-C: the slicer's output over every MFT
// of the synthesized corpora is pinned by a digest, and the one-pass
// keyword scan is checked against the plain per-key substring scan it
// replaces, on every field slice of the corpora and on generated inputs.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/call_graph.h"
#include "analysis/pointsto/pointsto.h"
#include "analysis/valueflow/valueflow.h"
#include "core/reconstructor.h"
#include "core/slices.h"
#include "core/taint.h"
#include "firmware/field_dictionary.h"
#include "firmware/synthesizer.h"
#include "support/hash.h"
#include "support/rng.h"
#include "support/strings.h"

namespace firmres::core {
namespace {

/// One executable's MFTs together with the analysis context they were
/// built over, the way the pipeline's Phase 2 builds them: points-to,
/// value flow over it, the devirtualized call graph, then the taint walks.
struct ProgramMfts {
  explicit ProgramMfts(const ir::Program& program)
      : pointsto(program),
        valueflow(program, nullptr, {.pointsto = &pointsto}),
        call_graph(program, valueflow),
        mfts(MftBuilder(program, call_graph, MftBuilder::Options{}, &pointsto)
                 .build_all()) {}

  analysis::pointsto::PointsTo pointsto;
  analysis::ValueFlow valueflow;
  analysis::CallGraph call_graph;
  std::vector<Mft> mfts;
};

struct Corpus {
  std::vector<fw::FirmwareImage> images;
  std::vector<std::unique_ptr<ProgramMfts>> programs;
  std::vector<std::string> executables;  ///< path of programs[i]

  /// Programs stay put while `images` grows: each is owned by a pointer.
  void add(std::vector<fw::FirmwareImage> part) {
    for (fw::FirmwareImage& image : part) {
      for (const fw::FirmwareFile& file : image.files) {
        if (file.kind != fw::FirmwareFile::Kind::Executable ||
            file.program == nullptr)
          continue;
        programs.push_back(std::make_unique<ProgramMfts>(*file.program));
        executables.push_back(file.path);
      }
      images.push_back(std::move(image));
    }
  }
};

/// `firmres synth` + `firmres synth --memory`.
const Corpus& standard_and_memory() {
  static const Corpus corpus = [] {
    Corpus c;
    c.add(fw::synthesize_corpus());
    c.add(fw::synthesize_memory_corpus());
    return c;
  }();
  return corpus;
}

/// `firmres synth --sdk`.
const Corpus& sdk() {
  static const Corpus corpus = [] {
    Corpus c;
    c.add(fw::synthesize_sdk_corpus());
    return c;
  }();
  return corpus;
}

/// The keyword labeling as first written: lower the text, then one
/// substring find per dictionary key in precedence order.
fw::Primitive naive_keyword_label(std::string_view text) {
  static const fw::Primitive kOrder[] = {
      fw::Primitive::Signature,     fw::Primitive::BindToken,
      fw::Primitive::DevSecret,     fw::Primitive::UserCred,
      fw::Primitive::DevIdentifier, fw::Primitive::Address,
  };
  const std::string lowered = support::to_lower(text);
  for (const fw::Primitive p : kOrder)
    for (const fw::FieldTemplate& t : fw::templates_for(p))
      if (lowered.find(support::to_lower(t.key)) != std::string::npos)
        return p;
  return fw::Primitive::None;
}

std::vector<std::string> field_slice_texts(const Corpus& corpus) {
  std::vector<std::string> out;
  for (const auto& program : corpus.programs) {
    SliceGenerator::Options options;
    options.valueflow = &program->valueflow;
    for (const Mft& mft : program->mfts) {
      const SliceGenerator gen(mft, options);
      for (const FieldSlice& s : gen.slices())
        if (s.role == LeafRole::Field) out.push_back(s.slice_text);
    }
  }
  return out;
}

TEST(FieldDictionary, KeywordLabelMatchesNaiveScan) {
  std::size_t labelled = 0;
  for (const Corpus* corpus : {&standard_and_memory(), &sdk()}) {
    const std::vector<std::string> texts = field_slice_texts(*corpus);
    ASSERT_FALSE(texts.empty());
    for (const std::string& text : texts) {
      ASSERT_EQ(fw::keyword_label(text), naive_keyword_label(text)) << text;
      if (naive_keyword_label(text) != fw::Primitive::None) ++labelled;
    }
  }
  EXPECT_GT(labelled, 0u);

  // Generated inputs: dictionary keys in random case at random offsets
  // (byte 0 and the last byte included), confusables, high bytes, and
  // 0- and 1-byte strings.
  std::vector<std::string> words;
  for (const fw::Primitive p : fw::all_primitives())
    for (const fw::FieldTemplate& t : fw::templates_for(p))
      words.push_back(t.key);
  for (const char* w : {"signal", "snapshot", "sign", "sn", "s", "S", "",
                        "\xc3\xa9", "\xff", "_", "%s", "="})
    words.push_back(w);
  support::Rng rng(0x6b6579776f7264ULL);  // "keyword"
  const auto random_byte = [&rng] {
    return static_cast<char>(rng.uniform(0, 255));
  };
  for (int i = 0; i < 20000; ++i) {
    std::string text;
    const int parts = static_cast<int>(rng.uniform(0, 4));
    for (int k = 0; k < parts; ++k) {
      if (rng.uniform(0, 2) == 0) {
        text += random_byte();
        continue;
      }
      std::string w = rng.pick(words);
      for (char& c : w)
        if (rng.uniform(0, 1) == 0)
          c = static_cast<char>(
              std::toupper(static_cast<unsigned char>(c)));
      text += w;
    }
    ASSERT_EQ(fw::keyword_label(text), naive_keyword_label(text))
        << "input #" << i << ": " << text;
  }
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    EXPECT_EQ(fw::keyword_label(one), fw::Primitive::None);
  }
  EXPECT_EQ(fw::keyword_label(""), fw::Primitive::None);
  EXPECT_EQ(fw::keyword_label("SN"), fw::Primitive::DevIdentifier);
  EXPECT_EQ(fw::keyword_label("xxSn"), fw::Primitive::DevIdentifier);
  EXPECT_EQ(fw::keyword_label("Signal"), fw::Primitive::Signature);
}

TEST(SliceGenerator, CorpusSlicesArePinned) {
  // The digest covers everything §IV-C hands to §IV-D and the report: every
  // slice of every MFT, then each message's field labels in order. It was
  // recorded before the slicer was rewritten to walk each MFT once.
  const KeywordModel model;
  const Reconstructor reconstructor(model);
  const Corpus& corpus = standard_and_memory();
  support::Hasher h(0x736c696365733031ULL);  // "slices01"
  std::size_t slices = 0;
  for (std::size_t i = 0; i < corpus.programs.size(); ++i) {
    const ProgramMfts& program = *corpus.programs[i];
    SliceGenerator::Options options;
    options.valueflow = &program.valueflow;
    for (const Mft& mft : program.mfts) {
      const SliceGenerator gen(mft, options);
      h.u64(gen.slices().size());
      for (const FieldSlice& s : gen.slices()) {
        h.u64(static_cast<std::uint64_t>(s.leaf->leaf_id))
            .u8(static_cast<std::uint8_t>(s.role))
            .str(s.slice_text)
            .str(s.format_piece)
            .str(s.recovered_key)
            .u8(static_cast<std::uint8_t>(s.split_delimiter))
            .f64(s.split_score)
            .u64(static_cast<std::uint64_t>(s.split_pieces));
      }
      for (const std::string& f : gen.multi_field_formats()) h.str(f);
      slices += gen.slices().size();

      MftDecision decision;
      const auto msg = reconstructor.reconstruct_one(
          mft, corpus.executables[i], &program.valueflow, &decision);
      h.boolean(decision.kept).str(decision.reason);
      if (!msg.has_value()) continue;
      h.u64(msg->fields.size());
      for (const ReconstructedField& f : msg->fields)
        h.u64(static_cast<std::uint64_t>(f.leaf_id))
            .str(f.key)
            .u8(static_cast<std::uint8_t>(f.semantics));
    }
  }
  EXPECT_GT(slices, 1000u);
  EXPECT_EQ(h.digest(), 0x5a33a5b55e9a48a9ULL)
      << support::format("digest 0x%016llx over %zu slices",
                         static_cast<unsigned long long>(h.digest()), slices);
}

}  // namespace
}  // namespace firmres::core
