// Message form-check tests (§IV-E): the §II-B composition table, and both
// hard-coded-credential patterns.
#include "core/form_check.h"

#include <gtest/gtest.h>

namespace firmres::core {
namespace {

ReconstructedMessage message_with(const std::vector<fw::Primitive>& prims) {
  ReconstructedMessage msg;
  msg.delivery_address = 0x1000;
  for (const fw::Primitive p : prims) {
    ReconstructedField f;
    f.semantics = p;
    f.key = fw::primitive_name(p);
    f.source = FieldValueSource::Nvram;
    f.source_detail = "some_key";
    msg.fields.push_back(std::move(f));
  }
  return msg;
}

using P = fw::Primitive;

struct FormCase {
  std::vector<P> primitives;
  bool satisfies;
};

// Without this gtest prints a FormCase as its raw bytes, which hold the
// vector's heap pointers and so make the test names differ per process.
void PrintTo(const FormCase& c, std::ostream* os) {
  *os << '{';
  for (std::size_t i = 0; i < c.primitives.size(); ++i) {
    *os << (i ? ", " : "") << fw::primitive_name(c.primitives[i]);
  }
  *os << "} " << (c.satisfies ? "valid" : "invalid");
}

class FormComposition : public ::testing::TestWithParam<FormCase> {};

TEST_P(FormComposition, MatchesSection2B) {
  const FormCase& c = GetParam();
  const ReconstructedMessage msg = message_with(c.primitives);
  EXPECT_EQ(FormChecker::satisfies_any_form(msg), c.satisfies);
  const auto flaws = FormChecker().check({msg});
  const bool flagged_missing =
      !flaws.empty() && flaws[0].kind == FlawKind::MissingPrimitives;
  EXPECT_EQ(flagged_missing, !c.satisfies);
}

INSTANTIATE_TEST_SUITE_P(
    Compositions, FormComposition,
    ::testing::Values(
        // Valid: ① Id+Token, ② Id+Signature, ③ Id+Secret+UserCred.
        FormCase{{P::DevIdentifier, P::BindToken}, true},
        FormCase{{P::DevIdentifier, P::Signature}, true},
        FormCase{{P::DevIdentifier, P::DevSecret, P::UserCred}, true},
        FormCase{{P::DevIdentifier, P::BindToken, P::None}, true},
        FormCase{{P::DevIdentifier, P::Signature, P::DevSecret}, true},
        // Invalid compositions.
        FormCase{{}, false},
        FormCase{{P::None, P::None}, false},
        FormCase{{P::DevIdentifier}, false},
        FormCase{{P::DevIdentifier, P::None}, false},
        FormCase{{P::DevIdentifier, P::DevSecret}, false},
        FormCase{{P::DevIdentifier, P::UserCred}, false},
        FormCase{{P::DevSecret, P::UserCred}, false},  // no identifier
        FormCase{{P::BindToken}, false},
        FormCase{{P::Signature}, false},
        FormCase{{P::Address, P::None}, false}));

TEST(FormCheck, ReportListsPresentPrimitives) {
  const ReconstructedMessage msg =
      message_with({P::DevIdentifier, P::DevSecret});
  const auto flaws = FormChecker().check({msg});
  ASSERT_EQ(flaws.size(), 1u);
  EXPECT_EQ(flaws[0].kind, FlawKind::MissingPrimitives);
  EXPECT_EQ(flaws[0].present.size(), 2u);
  EXPECT_NE(flaws[0].detail.find("Dev-Identifier"), std::string::npos);
  EXPECT_NE(flaws[0].detail.find("Dev-Secret"), std::string::npos);
}

TEST(FormCheck, AddressAndNoneDontCountAsPrimitives) {
  const ReconstructedMessage msg =
      message_with({P::DevIdentifier, P::BindToken, P::Address, P::None});
  const auto flaws = FormChecker().check({msg});
  EXPECT_TRUE(flaws.empty());
}

TEST(FormCheck, HardcodedTokenPattern1) {
  // <Variable = Constant>: credential burned into the binary.
  ReconstructedMessage msg = message_with({P::DevIdentifier, P::BindToken});
  msg.fields[1].source = FieldValueSource::StringConst;
  msg.fields[1].hardcoded = true;
  msg.fields[1].const_value = "FIXED-TOKEN";
  const auto flaws = FormChecker().check({msg});
  ASSERT_EQ(flaws.size(), 1u);  // composition OK, but token hard-coded
  EXPECT_EQ(flaws[0].kind, FlawKind::HardcodedSecret);
  EXPECT_NE(flaws[0].detail.find("FIXED-TOKEN"), std::string::npos);
}

TEST(FormCheck, HardcodedSecretPattern2RequiresFileInImage) {
  // <Variable = Function(Constant)>: only a leak when the file ships in the
  // image.
  ReconstructedMessage msg =
      message_with({P::DevIdentifier, P::DevSecret, P::UserCred});
  msg.fields[1].source = FieldValueSource::FileRead;
  msg.fields[1].source_detail = "/etc/device.key";

  const auto without = FormChecker().check({msg}, {"/etc/cloud.conf"});
  EXPECT_TRUE(without.empty());

  const auto with =
      FormChecker().check({msg}, {"/etc/cloud.conf", "/etc/device.key"});
  ASSERT_EQ(with.size(), 1u);
  EXPECT_EQ(with[0].kind, FlawKind::HardcodedSecret);
  EXPECT_NE(with[0].detail.find("/etc/device.key"), std::string::npos);
}

TEST(FormCheck, NonCredentialConstantsNotFlagged) {
  // A hard-coded metadata value is not a credential leak.
  ReconstructedMessage msg =
      message_with({P::DevIdentifier, P::BindToken, P::None});
  msg.fields[2].source = FieldValueSource::StringConst;
  msg.fields[2].hardcoded = true;
  msg.fields[2].const_value = "en";
  EXPECT_TRUE(FormChecker().check({msg}).empty());
}

TEST(FormCheck, MultipleMessagesIndexedCorrectly) {
  const std::vector<ReconstructedMessage> msgs = {
      message_with({P::DevIdentifier, P::BindToken}),  // fine
      message_with({P::DevIdentifier}),                // flawed
      message_with({P::DevIdentifier, P::Signature}),  // fine
      message_with({P::None}),                         // flawed
  };
  const auto flaws = FormChecker().check(msgs);
  ASSERT_EQ(flaws.size(), 2u);
  EXPECT_EQ(flaws[0].message_index, 1u);
  EXPECT_EQ(flaws[1].message_index, 3u);
}

TEST(FormCheck, FlawKindNames) {
  EXPECT_STREQ(flaw_kind_name(FlawKind::MissingPrimitives),
               "missing-primitives");
  EXPECT_STREQ(flaw_kind_name(FlawKind::HardcodedSecret), "hardcoded-secret");
}

}  // namespace
}  // namespace firmres::core
