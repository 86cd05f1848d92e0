#include "firmware/serializer.h"

#include <cstdlib>
#include <fstream>

#include "ir/serializer.h"
#include "support/file.h"
#include "support/observability/trace.h"
#include "support/strings.h"

namespace firmres::fw {

namespace {

namespace fsys = std::filesystem;
using support::Json;
using support::JsonArray;
using support::JsonObject;
using support::ParseError;

[[noreturn]] void malformed(const std::string& what) {
  throw ParseError("firmware manifest: " + what);
}

const Json& field(const Json& obj, const char* key) {
  const Json* v = obj.find(key);
  if (v == nullptr) malformed(std::string("missing field '") + key + "'");
  return *v;
}

std::string get_str(const Json& obj, const char* key) {
  const Json& v = field(obj, key);
  if (!v.is_string())
    malformed(std::string("field '") + key +
              "' is not a string (old image format?)");
  return v.as_string();
}

const Json& typed(const Json& obj, const char* key, Json::Type type,
                  const char* what) {
  const Json& v = field(obj, key);
  if (v.type() != type)
    malformed(std::string("field '") + key + "' is not " + what);
  return v;
}

bool get_bool(const Json& obj, const char* key) {
  return typed(obj, key, Json::Type::Bool, "a bool").as_bool();
}

double get_num(const Json& obj, const char* key) {
  return typed(obj, key, Json::Type::Number, "a number").as_number();
}

template <class T = int>
T get_int(const Json& obj, const char* key) {
  const std::optional<T> v = support::checked_integer<T>(get_num(obj, key));
  if (!v.has_value())
    malformed(std::string("field '") + key + "' is out of range");
  return *v;
}

const JsonArray& get_array(const Json& obj, const char* key) {
  return typed(obj, key, Json::Type::Array, "an array").as_array();
}

// --- enum name round-trips ----------------------------------------------------

Protocol protocol_from_name(const std::string& name) {
  for (const Protocol p : {Protocol::Https, Protocol::Http, Protocol::Mqtt})
    if (name == protocol_name(p)) return p;
  malformed("unknown protocol '" + name + "'");
}

WireFormat wire_format_from_name(const std::string& name) {
  for (const WireFormat f :
       {WireFormat::Json, WireFormat::Query, WireFormat::KeyValue})
    if (name == wire_format_name(f)) return f;
  malformed("unknown wire format '" + name + "'");
}

FieldOrigin field_origin_from_name(const std::string& name) {
  for (const FieldOrigin o :
       {FieldOrigin::Nvram, FieldOrigin::Config, FieldOrigin::Env,
        FieldOrigin::Frontend, FieldOrigin::DevInfoCall,
        FieldOrigin::HardcodedStr, FieldOrigin::FileRead, FieldOrigin::Derived,
        FieldOrigin::Timestamp, FieldOrigin::Counter})
    if (name == field_origin_name(o)) return o;
  malformed("unknown field origin '" + name + "'");
}

FirmwareFile::Kind file_kind_from_name(const std::string& name) {
  for (const FirmwareFile::Kind k :
       {FirmwareFile::Kind::Executable, FirmwareFile::Kind::Script,
        FirmwareFile::Kind::Config, FirmwareFile::Kind::Certificate,
        FirmwareFile::Kind::Data})
    if (name == file_kind_name(k)) return k;
  malformed("unknown file kind '" + name + "'");
}

// --- sections ------------------------------------------------------------------

Json profile_to_json(const DeviceProfile& p) {
  Json o{JsonObject{}};
  o.set("id", p.id);
  o.set("vendor", p.vendor);
  o.set("model", p.model);
  o.set("device_type", p.device_type);
  o.set("firmware_version", p.firmware_version);
  o.set("script_based", p.script_based);
  o.set("protocol", std::string(protocol_name(p.primary_protocol)));
  o.set("assembly", p.assembly == AssemblyStyle::Sprintf ? "sprintf" : "jsonlib");
  o.set("num_messages", p.num_messages);
  o.set("num_retired", p.num_retired);
  o.set("num_lan_messages", p.num_lan_messages);
  o.set("min_fields", p.min_fields);
  o.set("max_fields", p.max_fields);
  o.set("noise_field_rate", p.noise_field_rate);
  o.set("custom_key_rate", p.custom_key_rate);
  o.set("num_noise_execs", p.num_noise_execs);
  o.set("single_field_formats", p.single_field_formats);
  o.set("indirect_dispatch", p.indirect_dispatch);
  // Emitted only when set so pre-existing serialized images stay identical.
  if (p.memory_indirection) o.set("memory_indirection", true);
  // 64-bit seeds exceed double precision; hex string keeps them exact.
  o.set("seed", support::format("0x%llx",
                                static_cast<unsigned long long>(p.seed)));
  return o;
}

DeviceProfile profile_from_json(const Json& o) {
  DeviceProfile p;
  p.id = get_int(o, "id");
  p.vendor = get_str(o, "vendor");
  p.model = get_str(o, "model");
  p.device_type = get_str(o, "device_type");
  p.firmware_version = get_str(o, "firmware_version");
  p.script_based = get_bool(o, "script_based");
  p.primary_protocol = protocol_from_name(get_str(o, "protocol"));
  p.assembly = get_str(o, "assembly") == "sprintf" ? AssemblyStyle::Sprintf
                                                   : AssemblyStyle::JsonLib;
  p.num_messages = get_int(o, "num_messages");
  p.num_retired = get_int(o, "num_retired");
  p.num_lan_messages = get_int(o, "num_lan_messages");
  p.min_fields = get_int(o, "min_fields");
  p.max_fields = get_int(o, "max_fields");
  p.noise_field_rate = get_num(o, "noise_field_rate");
  p.custom_key_rate = get_num(o, "custom_key_rate");
  p.num_noise_execs = get_int(o, "num_noise_execs");
  p.single_field_formats = get_bool(o, "single_field_formats");
  // Absent in images serialized before the field existed.
  if (o.find("indirect_dispatch") != nullptr)
    p.indirect_dispatch = get_bool(o, "indirect_dispatch");
  if (o.find("memory_indirection") != nullptr)
    p.memory_indirection = get_bool(o, "memory_indirection");
  p.seed = std::strtoull(get_str(o, "seed").c_str(), nullptr, 16);
  return p;
}

Json identity_to_json(const DeviceIdentity& id) {
  Json o{JsonObject{}};
  for (const auto& [key, value] : id.as_map()) o.set(key, value);
  return o;
}

DeviceIdentity identity_from_json(const Json& o) {
  DeviceIdentity id;
  id.mac = get_str(o, "mac");
  id.serial = get_str(o, "serial");
  id.device_id = get_str(o, "device_id");
  id.uid = get_str(o, "uid");
  id.uuid = get_str(o, "uuid");
  id.model_number = get_str(o, "model_number");
  id.hardware_version = get_str(o, "hardware_version");
  id.firmware_version = get_str(o, "firmware_version");
  id.manufacturing_date = get_str(o, "manufacturing_date");
  id.dev_secret = get_str(o, "dev_secret");
  id.certificate = get_str(o, "certificate");
  id.cloud_username = get_str(o, "cloud_username");
  id.cloud_password = get_str(o, "cloud_password");
  id.bind_token = get_str(o, "bind_token");
  id.cloud_host = get_str(o, "cloud_host");
  return id;
}

Json spec_to_json(const MessageSpec& spec) {
  Json o{JsonObject{}};
  o.set("name", spec.name);
  o.set("functionality", spec.functionality);
  o.set("endpoint_path", spec.endpoint_path);
  o.set("protocol", std::string(protocol_name(spec.protocol)));
  o.set("format", std::string(wire_format_name(spec.format)));
  o.set("assembly",
        spec.assembly == AssemblyStyle::Sprintf ? "sprintf" : "jsonlib");
  o.set("phase",
        spec.phase == MessageSpec::Phase::Binding ? "binding" : "business");
  o.set("vulnerable", spec.vulnerable);
  o.set("consequence", spec.consequence);
  o.set("endpoint_retired", spec.endpoint_retired);
  o.set("lan_destination", spec.lan_destination);
  o.set("benign_no_auth", spec.benign_no_auth);
  JsonArray fields;
  for (const FieldSpec& f : spec.fields) {
    Json fo{JsonObject{}};
    fo.set("key", f.key);
    fo.set("primitive", std::string(primitive_name(f.primitive)));
    fo.set("origin", std::string(field_origin_name(f.origin)));
    fo.set("source_key", f.source_key);
    fo.set("value", f.value);
    fo.set("vendor_custom", f.vendor_custom);
    fields.push_back(std::move(fo));
  }
  o.set("fields", Json(std::move(fields)));
  return o;
}

MessageSpec spec_from_json(const Json& o) {
  MessageSpec spec;
  spec.name = get_str(o, "name");
  spec.functionality = get_str(o, "functionality");
  spec.endpoint_path = get_str(o, "endpoint_path");
  spec.protocol = protocol_from_name(get_str(o, "protocol"));
  spec.format = wire_format_from_name(get_str(o, "format"));
  spec.assembly = get_str(o, "assembly") == "sprintf"
                      ? AssemblyStyle::Sprintf
                      : AssemblyStyle::JsonLib;
  spec.phase = get_str(o, "phase") == "binding" ? MessageSpec::Phase::Binding
                                                : MessageSpec::Phase::Business;
  spec.vulnerable = get_bool(o, "vulnerable");
  spec.consequence = get_str(o, "consequence");
  spec.endpoint_retired = get_bool(o, "endpoint_retired");
  spec.lan_destination = get_bool(o, "lan_destination");
  spec.benign_no_auth = get_bool(o, "benign_no_auth");
  for (const Json& fo : get_array(o, "fields")) {
    FieldSpec f;
    f.key = get_str(fo, "key");
    const auto prim = parse_primitive(get_str(fo, "primitive"));
    if (!prim.has_value()) malformed("unknown primitive in field spec");
    f.primitive = *prim;
    f.origin = field_origin_from_name(get_str(fo, "origin"));
    f.source_key = get_str(fo, "source_key");
    f.value = get_str(fo, "value");
    f.vendor_custom = get_bool(fo, "vendor_custom");
    spec.fields.push_back(std::move(f));
  }
  return spec;
}

std::string read_file(const fsys::path& path) {
  std::optional<std::string> text = support::read_file(path.string());
  if (!text.has_value()) throw ParseError("cannot open " + path.string());
  return std::move(*text);
}

void write_file(const fsys::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FIRMRES_CHECK_MSG(static_cast<bool>(out),
                    "cannot write " + path.string());
  out << content;
}

}  // namespace

support::Json manifest_to_json(const FirmwareImage& image) {
  Json doc{JsonObject{}};
  doc.set("format", "firmres-image");
  doc.set("version", 1);
  doc.set("profile", profile_to_json(image.profile));
  doc.set("identity", identity_to_json(image.identity));

  Json nvram{JsonObject{}};
  for (const auto& [key, value] : image.nvram) nvram.set(key, value);
  doc.set("nvram", std::move(nvram));

  JsonArray files;
  int program_index = 0;
  for (const FirmwareFile& f : image.files) {
    Json fo{JsonObject{}};
    fo.set("path", f.path);
    fo.set("kind", std::string(file_kind_name(f.kind)));
    if (f.program != nullptr) {
      fo.set("program", support::format("programs/%03d.json", program_index));
      ++program_index;
    } else {
      fo.set("text", f.text);
    }
    files.push_back(std::move(fo));
  }
  doc.set("files", Json(std::move(files)));

  Json truth{JsonObject{}};
  truth.set("device_cloud_executable", image.truth.device_cloud_executable);
  JsonArray messages;
  for (const MessageTruth& m : image.truth.messages) {
    Json mo{JsonObject{}};
    mo.set("spec", spec_to_json(m.spec));
    mo.set("executable", m.executable);
    mo.set("delivery_address", static_cast<double>(m.delivery_address));
    mo.set("noise_fields", m.noise_fields);
    messages.push_back(std::move(mo));
  }
  truth.set("messages", Json(std::move(messages)));
  doc.set("truth", std::move(truth));
  return doc;
}

void save_image(const FirmwareImage& image, const fsys::path& dir) {
  fsys::create_directories(dir / "programs");
  write_file(dir / "manifest.json", manifest_to_json(image).dump(true));
  int program_index = 0;
  for (const FirmwareFile& f : image.files) {
    if (f.program == nullptr) continue;
    write_file(dir / support::format("programs/%03d.json", program_index),
               ir::program_to_json(*f.program).dump());
    ++program_index;
  }
}

FirmwareImage load_image(const fsys::path& dir) {
  FIRMRES_SPAN("load.image", "firmware");
  const Json doc = Json::parse(read_file(dir / "manifest.json"));
  if (const Json* fmt = doc.find("format");
      fmt == nullptr || !fmt->is_string() ||
      fmt->as_string() != "firmres-image")
    malformed("not a firmres-image manifest");

  FirmwareImage image;
  image.profile = profile_from_json(field(doc, "profile"));
  image.identity = identity_from_json(field(doc, "identity"));
  for (const auto& [key, value] :
       typed(doc, "nvram", Json::Type::Object, "an object").as_object()) {
    if (!value.is_string())
      malformed("nvram value '" + key + "' is not a string");
    image.nvram[key] = value.as_string();
  }

  for (const Json& fo : get_array(doc, "files")) {
    FirmwareFile file;
    file.path = get_str(fo, "path");
    file.kind = file_kind_from_name(get_str(fo, "kind"));
    if (fo.find("program") != nullptr) {
      file.program = ir::program_from_json(
          read_file(dir / get_str(fo, "program")));
    } else {
      file.text = get_str(fo, "text");
    }
    image.files.push_back(std::move(file));
  }

  // The truth section is optional: real unpacked firmware has none.
  if (const Json* truth = doc.find("truth"); truth != nullptr) {
    image.truth.device_cloud_executable =
        get_str(*truth, "device_cloud_executable");
    for (const Json& mo : get_array(*truth, "messages")) {
      MessageTruth m;
      m.spec = spec_from_json(field(mo, "spec"));
      m.executable = get_str(mo, "executable");
      m.delivery_address = get_int<std::uint64_t>(mo, "delivery_address");
      m.noise_fields = get_int(mo, "noise_fields");
      image.truth.messages.push_back(std::move(m));
    }
  }
  return image;
}

}  // namespace firmres::fw
