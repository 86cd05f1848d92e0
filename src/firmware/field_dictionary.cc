#include "firmware/field_dictionary.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdint>

#include "support/error.h"
#include "support/strings.h"

namespace firmres::fw {

namespace {

std::vector<FieldTemplate> make_identifier_templates() {
  return {
      {"mac", Primitive::DevIdentifier, "mac"},
      {"macAddress", Primitive::DevIdentifier, "mac"},
      {"mac_addr", Primitive::DevIdentifier, "mac"},
      {"sn", Primitive::DevIdentifier, "serial"},
      {"serialNo", Primitive::DevIdentifier, "serial"},
      {"serialNumber", Primitive::DevIdentifier, "serial"},
      {"serial_number", Primitive::DevIdentifier, "serial"},
      {"deviceId", Primitive::DevIdentifier, "device_id"},
      {"deviceID", Primitive::DevIdentifier, "device_id"},
      {"device_id", Primitive::DevIdentifier, "device_id"},
      {"devId", Primitive::DevIdentifier, "device_id"},
      {"uid", Primitive::DevIdentifier, "uid"},
      {"vuid", Primitive::DevIdentifier, "uid"},
      {"userid", Primitive::DevIdentifier, "device_id"},
      {"uuid", Primitive::DevIdentifier, "uuid"},
      {"productId", Primitive::DevIdentifier, "model_number"},
      {"modelId", Primitive::DevIdentifier, "model_number"},
      {"modelNumber", Primitive::DevIdentifier, "model_number"},
      {"clientId", Primitive::DevIdentifier, "device_id"},
  };
}

std::vector<FieldTemplate> make_secret_templates() {
  return {
      {"deviceSecret", Primitive::DevSecret, "dev_secret"},
      {"dev_secret", Primitive::DevSecret, "dev_secret"},
      {"secretKey", Primitive::DevSecret, "dev_secret"},
      {"secret_key", Primitive::DevSecret, "dev_secret"},
      {"deviceKey", Primitive::DevSecret, "dev_secret"},
      {"device_key", Primitive::DevSecret, "dev_secret"},
      {"devKey", Primitive::DevSecret, "dev_secret"},
      {"productSecret", Primitive::DevSecret, "dev_secret"},
      {"cert", Primitive::DevSecret, "certificate"},
      {"certificate", Primitive::DevSecret, "certificate"},
      {"devCert", Primitive::DevSecret, "certificate"},
  };
}

std::vector<FieldTemplate> make_user_cred_templates() {
  return {
      {"username", Primitive::UserCred, "cloud_username"},
      {"user_name", Primitive::UserCred, "cloud_username"},
      {"cloudusername", Primitive::UserCred, "cloud_username"},
      {"account", Primitive::UserCred, "cloud_username"},
      {"login", Primitive::UserCred, "cloud_username"},
      {"password", Primitive::UserCred, "cloud_password"},
      {"passwd", Primitive::UserCred, "cloud_password"},
      {"cloudpassword", Primitive::UserCred, "cloud_password"},
      {"userPassword", Primitive::UserCred, "cloud_password"},
  };
}

std::vector<FieldTemplate> make_bind_token_templates() {
  return {
      {"token", Primitive::BindToken, "bind_token"},
      {"accessToken", Primitive::BindToken, "bind_token"},
      {"access_token", Primitive::BindToken, "bind_token"},
      {"sessionToken", Primitive::BindToken, "bind_token"},
      {"session_key", Primitive::BindToken, "bind_token"},
      {"bindToken", Primitive::BindToken, "bind_token"},
      {"deviceToken", Primitive::BindToken, "bind_token"},
      {"accessKey", Primitive::BindToken, "bind_token"},
  };
}

std::vector<FieldTemplate> make_signature_templates() {
  return {
      {"sign", Primitive::Signature, "dev_secret"},
      {"signature", Primitive::Signature, "dev_secret"},
      {"tmpKey", Primitive::Signature, "dev_secret"},
      {"tempSecret", Primitive::Signature, "dev_secret"},
      {"hmac", Primitive::Signature, "dev_secret"},
      {"digest", Primitive::Signature, "dev_secret"},
      {"authCode", Primitive::Signature, "dev_secret"},
  };
}

std::vector<FieldTemplate> make_address_templates() {
  return {
      {"host", Primitive::Address, "cloud_host"},
      {"server", Primitive::Address, "cloud_host"},
      {"serverUrl", Primitive::Address, "cloud_host"},
      {"endpoint", Primitive::Address, "cloud_host"},
      {"serverIp", Primitive::Address, "cloud_host"},
      {"broker", Primitive::Address, "cloud_host"},
  };
}

std::vector<FieldTemplate> make_metadata_templates() {
  std::vector<FieldTemplate> out;
  for (const char* key :
       {"timestamp", "time", "ts", "seq", "lang", "version", "fwVer",
        "status", "uptime", "rssi", "payload", "temperature", "power",
        "alarm_time", "img", "channel", "stream", "type", "date", "begin",
        "end", "reason", "level", "msg", "count", "interval", "mode", "zone",
        "format", "quality", "cpu", "mem", "ssid", "bitrate", "duration",
        "start_time", "sdkver", "code", "cluster", "uploadType",
        "uploadSubType", "manufacturingDate", "hardwareVersion",
        "firmwareVersion",
        // Confusable keys: each embeds a dictionary keyword ("sign", "sn",
        // "cert", "mac"), so keyword labeling — and the model trained on it —
        // misclassifies them. This reproduces the paper's residual semantics
        // error (~8%, Table II #Accurate column).
        "signal", "snapshot", "certlevel", "macfilter"}) {
    out.push_back({key, Primitive::None, ""});
  }
  return out;
}

}  // namespace

const std::vector<FieldTemplate>& templates_for(Primitive p) {
  static const std::vector<FieldTemplate> kId = make_identifier_templates();
  static const std::vector<FieldTemplate> kSecret = make_secret_templates();
  static const std::vector<FieldTemplate> kUser = make_user_cred_templates();
  static const std::vector<FieldTemplate> kToken = make_bind_token_templates();
  static const std::vector<FieldTemplate> kSig = make_signature_templates();
  static const std::vector<FieldTemplate> kAddr = make_address_templates();
  static const std::vector<FieldTemplate> kMeta = make_metadata_templates();
  switch (p) {
    case Primitive::DevIdentifier: return kId;
    case Primitive::DevSecret: return kSecret;
    case Primitive::UserCred: return kUser;
    case Primitive::BindToken: return kToken;
    case Primitive::Signature: return kSig;
    case Primitive::Address: return kAddr;
    case Primitive::None: return kMeta;
  }
  return kMeta;
}

namespace {

/// The dictionary keys of keyword_label, lowered, in precedence order, as
/// one Aho–Corasick automaton: a single pass over a text finds every key it
/// contains, case-folded, with no allocation. Bytes map to classes first —
/// one per character the keys use, class 0 for all others — so the dense
/// table stays small (a few hundred states × ~28 classes, about 30 KB).
class KeywordScanner {
 public:
  static constexpr std::uint16_t kNoKey = 0xffff;

  explicit KeywordScanner(const std::vector<std::string>& keys) {
    std::array<std::uint8_t, 256> class_of_key_char{};
    for (const std::string& key : keys)
      for (const char c : key)
        if (class_of_key_char[static_cast<unsigned char>(c)] == 0)
          class_of_key_char[static_cast<unsigned char>(c)] =
              static_cast<std::uint8_t>(classes_++);
    for (int b = 0; b < 256; ++b)
      class_[static_cast<std::size_t>(b)] =
          class_of_key_char[static_cast<unsigned char>(std::tolower(b))];

    // Trie of the keys: edges[state × class], -1 for a missing edge; each
    // state's lowest key index in best.
    std::vector<int> edges(classes_, -1);
    std::vector<std::uint16_t> best{kNoKey};
    for (std::size_t k = 0; k < keys.size(); ++k) {
      std::size_t state = 0;
      for (const char c : keys[k]) {
        const std::size_t edge =
            state * classes_ + class_[static_cast<unsigned char>(c)];
        if (edges[edge] < 0) {
          edges[edge] = static_cast<int>(best.size());
          edges.resize(edges.size() + classes_, -1);
          best.push_back(kNoKey);
        }
        state = static_cast<std::size_t>(edges[edge]);
      }
      best[state] = std::min(best[state], static_cast<std::uint16_t>(k));
    }
    // Breadth-first: complete the transitions through the failure links
    // and fold each state's failure-chain keys into its best key.
    std::vector<std::size_t> fail(best.size(), 0), queue;
    for (std::size_t c = 0; c < classes_; ++c) {
      if (edges[c] < 0)
        edges[c] = 0;
      else
        queue.push_back(static_cast<std::size_t>(edges[c]));
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t state = queue[head];
      best[state] = std::min(best[state], best[fail[state]]);
      for (std::size_t c = 0; c < classes_; ++c) {
        int& to = edges[state * classes_ + c];
        const int via_fail = edges[fail[state] * classes_ + c];
        if (to < 0) {
          to = via_fail;
        } else {
          fail[static_cast<std::size_t>(to)] =
              static_cast<std::size_t>(via_fail);
          queue.push_back(static_cast<std::size_t>(to));
        }
      }
    }
    // One row per state: its transitions as row offsets, then its best key,
    // so a step is two loads from the same row.
    const std::size_t width = classes_ + 1;
    FIRMRES_CHECK(best.size() * width <= 0xffff);
    table_.resize(best.size() * width);
    for (std::size_t state = 0; state < best.size(); ++state) {
      for (std::size_t c = 0; c < classes_; ++c)
        table_[state * width + c] = static_cast<std::uint16_t>(
            static_cast<std::size_t>(edges[state * classes_ + c]) * width);
      table_[state * width + classes_] = best[state];
    }
  }

  /// Index of the lowest-index key occurring in `text`; kNoKey if none.
  std::uint16_t first_key(std::string_view text) const {
    std::size_t row = 0;
    std::uint16_t best = kNoKey;
    for (const char c : text) {
      row = table_[row + class_[static_cast<unsigned char>(c)]];
      best = std::min(best, table_[row + classes_]);
    }
    return best;
  }

 private:
  std::array<std::uint8_t, 256> class_{};  ///< byte → class of its lowercase
  std::size_t classes_ = 1;                ///< class 0: no key has the byte
  std::vector<std::uint16_t> table_;       ///< states × (classes + 1)
};

}  // namespace

Primitive keyword_label(std::string_view text) {
  // Specific classes first: a slice mentioning both "deviceId" and
  // "timestamp" is about the identifier. Signature precedes DevSecret
  // because a derived credential's slice shows both the derivation ("sign",
  // "hmac") and the secret it reads ("dev_secret") — the wire field is the
  // signature (§II-B form ②). None last by construction. The label is the
  // class of the first key in this order that occurs in the text.
  struct Dictionary {
    std::vector<Primitive> primitive_of;  ///< per key index
    KeywordScanner scanner;
  };
  static const Dictionary kDictionary = [] {
    static const Primitive kOrder[] = {
        Primitive::Signature,     Primitive::BindToken,
        Primitive::DevSecret,     Primitive::UserCred,
        Primitive::DevIdentifier, Primitive::Address,
    };
    std::vector<std::string> keys;
    std::vector<Primitive> primitive_of;
    for (const Primitive p : kOrder) {
      for (const FieldTemplate& t : templates_for(p)) {
        keys.push_back(support::to_lower(t.key));
        primitive_of.push_back(p);
      }
    }
    return Dictionary{std::move(primitive_of), KeywordScanner(keys)};
  }();
  const std::uint16_t key = kDictionary.scanner.first_key(text);
  return key == KeywordScanner::kNoKey ? Primitive::None
                                       : kDictionary.primitive_of[key];
}

std::optional<Primitive> primitive_of_key(std::string_view key) {
  for (const Primitive p : all_primitives()) {
    for (const FieldTemplate& t : templates_for(p)) {
      if (support::iequals(t.key, key)) return p;
    }
  }
  return std::nullopt;
}

std::optional<std::string> logical_of_key(std::string_view key) {
  for (const Primitive p : all_primitives()) {
    for (const FieldTemplate& t : templates_for(p)) {
      if (support::iequals(t.key, key) && !t.logical.empty())
        return t.logical;
    }
  }
  return std::nullopt;
}

const std::vector<std::string>& metadata_keys() {
  static const std::vector<std::string> kKeys = [] {
    std::vector<std::string> out;
    for (const FieldTemplate& t : templates_for(Primitive::None))
      out.push_back(t.key);
    return out;
  }();
  return kKeys;
}

const std::vector<std::string>& vendor_custom_keys() {
  static const std::vector<std::string> kKeys = {
      "verify_code", "vcode",     "eventType",  "pluginId", "nonceStr",
      "apphash",     "regmagic",  "xtkn",       "binddata", "ckey",
      "devparam",    "cloudmark", "relaycode",
  };
  return kKeys;
}

}  // namespace firmres::fw
