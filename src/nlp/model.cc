#include "nlp/model.h"

#include <cmath>
#include <fstream>

#include "support/file.h"

namespace firmres::nlp {

namespace {

Param make_param(int rows, int cols, support::Rng& rng) {
  return Param(glorot(rows, cols, rng));
}

}  // namespace

SliceClassifier::SliceClassifier(Vocab vocab, ModelConfig config)
    : vocab_(std::move(vocab)),
      config_(std::move(config)),
      embedding_(Mat()),
      pos_(Mat()),
      wo_(Mat()),
      fc_w_(Mat()),
      fc_b_(Mat()) {
  FIRMRES_CHECK_MSG(config_.embed_dim % config_.heads == 0,
                    "embed_dim must divide into heads");
  support::Rng rng(config_.seed);
  embedding_ = make_param(vocab_.size(), config_.embed_dim, rng);
  pos_ = make_param(config_.max_len, config_.embed_dim, rng);
  const int head_dim = config_.embed_dim / config_.heads;
  for (int h = 0; h < config_.heads; ++h) {
    wq_.push_back(make_param(config_.embed_dim, head_dim, rng));
    wk_.push_back(make_param(config_.embed_dim, head_dim, rng));
    wv_.push_back(make_param(config_.embed_dim, head_dim, rng));
  }
  wo_ = make_param(config_.embed_dim, config_.embed_dim, rng);
  int pooled = 0;
  for (const int k : config_.kernel_sizes) {
    conv_w_.push_back(make_param(k * config_.embed_dim, config_.conv_filters,
                                 rng));
    conv_b_.push_back(Param(Mat(1, config_.conv_filters)));
    pooled += config_.conv_filters;
  }
  fc_w_ = make_param(pooled, config_.num_classes, rng);
  fc_b_ = Param(Mat(1, config_.num_classes));
}

std::vector<Param*> SliceClassifier::params() {
  std::vector<Param*> out = {&embedding_, &pos_, &wo_, &fc_w_, &fc_b_};
  for (auto& p : wq_) out.push_back(&p);
  for (auto& p : wk_) out.push_back(&p);
  for (auto& p : wv_) out.push_back(&p);
  for (auto& p : conv_w_) out.push_back(&p);
  for (auto& p : conv_b_) out.push_back(&p);
  return out;
}

std::size_t SliceClassifier::parameter_count() const {
  std::size_t n = 0;
  for (const Param* p :
       const_cast<SliceClassifier*>(this)->params())
    n += p->value.size();
  return n;
}

ValueId SliceClassifier::forward(Graph& g, const std::vector<int>& ids) const {
  // Embedding + positional encoding.
  ValueId x = g.embed(embedding_, ids);
  ValueId pos = g.param(pos_);
  x = g.add(x, pos);

  // Multi-head self-attention (Eq. 2) with a residual connection.
  const int head_dim = config_.embed_dim / config_.heads;
  const float inv_sqrt = 1.0f / std::sqrt(static_cast<float>(head_dim));
  ValueId heads = -1;
  for (int h = 0; config_.use_attention && h < config_.heads; ++h) {
    const ValueId q = g.matmul(x, g.param(wq_[static_cast<std::size_t>(h)]));
    const ValueId k = g.matmul(x, g.param(wk_[static_cast<std::size_t>(h)]));
    const ValueId v = g.matmul(x, g.param(wv_[static_cast<std::size_t>(h)]));
    // softmax(Q Kᵀ / √d) V
    ValueId scores = g.matmul(q, g.transpose_op(k));
    scores = g.scale(scores, inv_sqrt);
    const ValueId attn = g.softmax_rows(scores);
    const ValueId head = g.matmul(attn, v);
    heads = heads < 0 ? head : g.concat_cols(heads, head);
  }
  if (heads >= 0) {
    const ValueId attended = g.matmul(heads, g.param(wo_));
    x = g.add(x, attended);  // residual
  }

  // TextCNN: parallel convolutions, ReLU, max-over-time, concat.
  ValueId pooled = -1;
  for (std::size_t i = 0; i < config_.kernel_sizes.size(); ++i) {
    const int k = config_.kernel_sizes[i];
    ValueId conv = g.matmul(g.windows(x, k), g.param(conv_w_[i]));
    conv = g.add_rowvec(conv, g.param(conv_b_[i]));
    conv = g.relu(conv);
    const ValueId mx = g.max_over_rows(conv);
    pooled = pooled < 0 ? mx : g.concat_cols(pooled, mx);
  }

  // Fully connected head.
  ValueId logits = g.matmul(pooled, g.param(fc_w_));
  logits = g.add(logits, g.param(fc_b_));
  return logits;
}

float SliceClassifier::train_example(const std::string& slice_text,
                                     fw::Primitive label) {
  Graph g;
  const ValueId logits = forward(g, vocab_.encode(slice_text, config_.max_len));
  const float loss = g.cross_entropy(logits, static_cast<int>(label));
  g.backward();
  return loss;
}

void SliceClassifier::apply_gradients(float lr) {
  ++adam_step_;
  auto ps = params();
  adam_step(ps, lr, adam_step_);
}

std::vector<float> SliceClassifier::predict(
    const std::string& slice_text) const {
  Graph g;
  const ValueId logits = forward(g, vocab_.encode(slice_text, config_.max_len));
  const Mat probs = g.softmax_of(logits);
  return {probs.data.begin(), probs.data.end()};
}

fw::Primitive SliceClassifier::classify(const std::string& slice_text) const {
  return classify_scored(slice_text).label;
}

core::ScoredClassification SliceClassifier::classify_scored(
    const std::string& slice_text) const {
  const std::vector<float> probs = predict(slice_text);
  core::ScoredClassification out;
  out.scores.assign(probs.begin(), probs.end());
  int best = 0, second = -1;
  for (int c = 1; c < static_cast<int>(probs.size()); ++c) {
    if (probs[static_cast<std::size_t>(c)] >
        probs[static_cast<std::size_t>(best)]) {
      second = best;
      best = c;
    } else if (second < 0 || probs[static_cast<std::size_t>(c)] >
                                 probs[static_cast<std::size_t>(second)]) {
      second = c;
    }
  }
  out.label = static_cast<fw::Primitive>(best);
  out.margin = second < 0
                   ? 1.0
                   : static_cast<double>(
                         probs[static_cast<std::size_t>(best)] -
                         probs[static_cast<std::size_t>(second)]);
  return out;
}

// --- persistence --------------------------------------------------------------

namespace {

support::Json mat_to_json(const Mat& m) {
  support::Json o{support::JsonObject{}};
  o.set("rows", m.rows);
  o.set("cols", m.cols);
  support::JsonArray data;
  data.reserve(m.data.size());
  for (const float v : m.data) data.emplace_back(static_cast<double>(v));
  o.set("data", support::Json(std::move(data)));
  return o;
}

Mat mat_from_json(const support::Json& o) {
  const support::Json* rows = o.find("rows");
  const support::Json* cols = o.find("cols");
  const support::Json* data = o.find("data");
  if (rows == nullptr || cols == nullptr || data == nullptr)
    throw support::ParseError("model matrix: missing rows/cols/data");
  Mat m(static_cast<int>(rows->as_number()),
        static_cast<int>(cols->as_number()));
  const auto& arr = data->as_array();
  if (arr.size() != m.data.size())
    throw support::ParseError("model matrix: data length mismatch");
  for (std::size_t i = 0; i < arr.size(); ++i)
    m.data[i] = static_cast<float>(arr[i].as_number());
  return m;
}

}  // namespace

support::Json SliceClassifier::to_json() const {
  support::Json doc{support::JsonObject{}};
  doc.set("format", "firmres-model");
  doc.set("version", 1);

  support::Json cfg{support::JsonObject{}};
  cfg.set("embed_dim", config_.embed_dim);
  cfg.set("heads", config_.heads);
  cfg.set("conv_filters", config_.conv_filters);
  support::JsonArray kernels;
  for (const int k : config_.kernel_sizes) kernels.emplace_back(k);
  cfg.set("kernel_sizes", support::Json(std::move(kernels)));
  cfg.set("max_len", config_.max_len);
  cfg.set("num_classes", config_.num_classes);
  cfg.set("use_attention", config_.use_attention);
  doc.set("config", std::move(cfg));

  support::JsonArray tokens;
  for (const std::string& t : vocab_.tokens()) tokens.emplace_back(t);
  doc.set("vocab", support::Json(std::move(tokens)));

  support::Json weights{support::JsonObject{}};
  auto& self = const_cast<SliceClassifier&>(*this);
  const std::vector<Param*> params = self.params();
  support::JsonArray mats;
  for (const Param* p : params) mats.push_back(mat_to_json(p->value));
  weights.set("params", support::Json(std::move(mats)));
  doc.set("weights", std::move(weights));
  return doc;
}

std::unique_ptr<SliceClassifier> SliceClassifier::from_json(
    const support::Json& doc) {
  const support::Json* fmt = doc.find("format");
  if (fmt == nullptr || !fmt->is_string() ||
      fmt->as_string() != "firmres-model")
    throw support::ParseError("not a firmres-model document");

  const support::Json* cfg = doc.find("config");
  const support::Json* vocab_doc = doc.find("vocab");
  const support::Json* weights = doc.find("weights");
  if (cfg == nullptr || vocab_doc == nullptr || weights == nullptr)
    throw support::ParseError("model document missing sections");

  ModelConfig config;
  config.embed_dim = static_cast<int>(cfg->find("embed_dim")->as_number());
  config.heads = static_cast<int>(cfg->find("heads")->as_number());
  config.conv_filters =
      static_cast<int>(cfg->find("conv_filters")->as_number());
  config.kernel_sizes.clear();
  for (const support::Json& k : cfg->find("kernel_sizes")->as_array())
    config.kernel_sizes.push_back(static_cast<int>(k.as_number()));
  config.max_len = static_cast<int>(cfg->find("max_len")->as_number());
  config.num_classes = static_cast<int>(cfg->find("num_classes")->as_number());
  config.use_attention = cfg->find("use_attention")->as_bool();

  std::vector<std::string> tokens;
  for (const support::Json& t : vocab_doc->as_array())
    tokens.push_back(t.as_string());

  auto model = std::make_unique<SliceClassifier>(
      Vocab::from_tokens(std::move(tokens)), std::move(config));

  const auto& mats = weights->find("params")->as_array();
  const std::vector<Param*> params = model->params();
  if (mats.size() != params.size())
    throw support::ParseError("model document: parameter count mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) {
    Mat m = mat_from_json(mats[i]);
    if (m.rows != params[i]->value.rows || m.cols != params[i]->value.cols)
      throw support::ParseError("model document: parameter shape mismatch");
    params[i]->value = std::move(m);
  }
  return model;
}

void SliceClassifier::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  FIRMRES_CHECK_MSG(static_cast<bool>(out), "cannot write " + path);
  out << to_json().dump();
}

std::unique_ptr<SliceClassifier> SliceClassifier::load(
    const std::string& path) {
  const std::optional<std::string> text = support::read_file(path);
  if (!text.has_value())
    throw support::ParseError("cannot open model file " + path);
  return from_json(support::Json::parse(*text));
}

}  // namespace firmres::nlp
