// Seeded mutation tests of the JSON reader and the program decoder: every
// truncation and every byte-flipped mutant of a real program document
// either decodes or raises ParseError — never another exception, a crash
// or undefined behaviour (the ASan+UBSan job runs this with the rest of
// ctest).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "firmware/synthesizer.h"
#include "ir/serializer.h"
#include "support/error.h"
#include "support/json.h"
#include "support/rng.h"

namespace firmres {
namespace {

// The smallest executable of device 7 that still has calls, symbols and
// strings: a few kilobytes, so every truncation stays cheap.
std::string sample_document() {
  const fw::FirmwareImage image = fw::synthesize(fw::profile_by_id(7));
  std::string best;
  for (const ir::Program* program : image.executables()) {
    const std::string text = ir::program_to_json(*program).dump();
    if (program->data().string_count() == 0 ||
        text.find("\"callee\"") == std::string::npos ||
        text.find("\"symbols\":[{") == std::string::npos)
      continue;
    if (best.empty() || text.size() < best.size()) best = text;
  }
  return best;
}

enum class Outcome { Decoded, ParseError };

// Decode `text` both ways (straight into a Program, and into a DOM); any
// exception but ParseError fails the test with `label`.
Outcome decode(const std::string& text, const std::string& label) {
  Outcome outcome = Outcome::Decoded;
  try {
    // Whatever decoded must also encode.
    (void)ir::program_to_json(*ir::program_from_json(text)).dump();
  } catch (const support::ParseError&) {
    outcome = Outcome::ParseError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": decoding threw " << e.what();
  }
  try {
    (void)support::Json::parse(text);
  } catch (const support::ParseError&) {
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": Json::parse threw " << e.what();
  }
  return outcome;
}

TEST(DecodeMutation, EveryTruncationIsAParseError) {
  const std::string doc = sample_document();
  ASSERT_GT(doc.size(), 500u);
  ASSERT_EQ(decode(doc, "original"), Outcome::Decoded);
  for (std::size_t n = 0; n < doc.size(); ++n)
    EXPECT_EQ(decode(doc.substr(0, n), "truncated at " + std::to_string(n)),
              Outcome::ParseError)
        << "a strict prefix decoded: " << n;
}

TEST(DecodeMutation, FlippedBytesDecodeOrRaiseParseError) {
  const std::string doc = sample_document();
  // Replacement bytes: JSON structure, digits, signs, escapes and
  // arbitrary bytes, so mutants hit every reader path.
  const std::string structural = "{}[]\",:-+.eE0123456789tfnul\\ \x01\xff";
  support::Rng rng(20240617);
  int decoded = 0;
  for (int i = 0; i < 3000; ++i) {
    std::string mutant = doc;
    const int flips = static_cast<int>(rng.uniform(1, 3));
    for (int f = 0; f < flips; ++f) {
      const auto at = static_cast<std::size_t>(
          rng.uniform(0, static_cast<std::int64_t>(mutant.size()) - 1));
      mutant[at] = rng.chance(0.5)
                       ? structural[static_cast<std::size_t>(rng.uniform(
                             0, static_cast<std::int64_t>(structural.size()) - 1))]
                       : static_cast<char>(mutant[at] ^ (1 << rng.uniform(0, 7)));
    }
    if (decode(mutant, "mutant " + std::to_string(i)) == Outcome::Decoded)
      ++decoded;
  }
  // Some flips land in names and values and still decode; most break it.
  EXPECT_GT(decoded, 0);
  EXPECT_LT(decoded, 3000);
}

}  // namespace
}  // namespace firmres
