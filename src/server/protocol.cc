#include "src/server/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace cvopt {

namespace {

// ---- little-endian put/get over std::string buffers. The engine only
// targets little-endian hosts (x86-64 / aarch64 Linux), so memcpy of the
// native representation IS the wire byte order.

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

template <typename T>
void PutInt(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

void PutString(std::string* out, const std::string& s) {
  PutInt<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

void PutDoubleBits(std::string* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  PutInt<uint64_t>(out, bits);
}

// Bounds-checked reader over a payload.
class Cursor {
 public:
  explicit Cursor(const std::string& data) : data_(data) {}

  Status GetU8(uint8_t* v) {
    if (pos_ + 1 > data_.size()) return Truncated();
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  template <typename T>
  Status GetInt(T* v) {
    if (pos_ + sizeof(T) > data_.size()) return Truncated();
    std::memcpy(v, data_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  Status GetString(std::string* s) {
    uint32_t len = 0;
    CVOPT_RETURN_NOT_OK(GetInt(&len));
    if (len > kMaxFrameBytes || pos_ + len > data_.size()) return Truncated();
    s->assign(data_.data() + pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status GetDoubleBits(double* d) {
    uint64_t bits = 0;
    CVOPT_RETURN_NOT_OK(GetInt(&bits));
    std::memcpy(d, &bits, sizeof(bits));
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  static Status Truncated() {
    return Status::InvalidArgument("truncated protocol payload");
  }

  const std::string& data_;
  size_t pos_ = 0;
};

}  // namespace

double WireResult::value(size_t group, size_t agg) const {
  double d;
  const uint64_t bits = value_bits[group * agg_labels.size() + agg];
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

WireResult FlattenResult(const QueryResult& result) {
  WireResult w;
  w.agg_labels = result.agg_labels();
  const size_t groups = result.num_groups();
  const size_t aggs = result.num_aggregates();
  w.group_labels.reserve(groups);
  w.key_codes.reserve(groups);
  w.value_bits.reserve(groups * aggs);
  for (size_t g = 0; g < groups; ++g) {
    w.group_labels.push_back(result.label(g));
    const int64_t* codes = result.key_codes(g);
    w.key_codes.emplace_back(codes, codes + result.key_arity());
    for (size_t a = 0; a < aggs; ++a) {
      const double d = result.value(g, a);
      uint64_t bits;
      std::memcpy(&bits, &d, sizeof(bits));
      w.value_bits.push_back(bits);
    }
  }
  return w;
}

void EncodeRequest(const RequestEnvelope& req, std::string* out) {
  out->clear();
  PutU8(out, static_cast<uint8_t>(req.kind));
  PutInt<uint64_t>(out, req.request_id);
  if (req.kind != MessageKind::kQueryBatch) return;
  PutString(out, req.tenant);
  PutInt<uint32_t>(out, req.timeout_ms);
  PutInt<uint64_t>(out, req.memory_limit_bytes);
  PutInt<uint32_t>(out, static_cast<uint32_t>(req.queries.size()));
  for (const QueryRequestItem& q : req.queries) {
    PutU8(out, q.exact ? 1 : 0);
    PutDoubleBits(out, q.sample_rate);
    PutString(out, q.sql);
  }
}

Result<RequestEnvelope> DecodeRequest(const std::string& payload) {
  Cursor c(payload);
  RequestEnvelope req;
  uint8_t kind = 0;
  CVOPT_RETURN_NOT_OK(c.GetU8(&kind));
  if (kind < 1 || kind > 3) {
    return Status::InvalidArgument("unknown request kind");
  }
  req.kind = static_cast<MessageKind>(kind);
  CVOPT_RETURN_NOT_OK(c.GetInt(&req.request_id));
  if (req.kind != MessageKind::kQueryBatch) return req;
  CVOPT_RETURN_NOT_OK(c.GetString(&req.tenant));
  CVOPT_RETURN_NOT_OK(c.GetInt(&req.timeout_ms));
  CVOPT_RETURN_NOT_OK(c.GetInt(&req.memory_limit_bytes));
  uint32_t count = 0;
  CVOPT_RETURN_NOT_OK(c.GetInt(&count));
  if (count > kMaxFrameBytes / 8) {
    return Status::InvalidArgument("absurd query count");
  }
  req.queries.resize(count);
  for (QueryRequestItem& q : req.queries) {
    uint8_t exact = 0;
    CVOPT_RETURN_NOT_OK(c.GetU8(&exact));
    q.exact = exact != 0;
    CVOPT_RETURN_NOT_OK(c.GetDoubleBits(&q.sample_rate));
    CVOPT_RETURN_NOT_OK(c.GetString(&q.sql));
  }
  if (!c.AtEnd()) return Status::InvalidArgument("trailing request bytes");
  return req;
}

void EncodeResponse(const ResponseEnvelope& resp, std::string* out) {
  out->clear();
  PutU8(out, static_cast<uint8_t>(resp.kind));
  PutInt<uint64_t>(out, resp.request_id);
  if (resp.kind == MessageKind::kMetrics) {
    PutString(out, resp.metrics_text);
    return;
  }
  if (resp.kind == MessageKind::kShutdown) return;
  PutInt<uint32_t>(out, static_cast<uint32_t>(resp.results.size()));
  for (const QueryResponseItem& item : resp.results) {
    PutU8(out, static_cast<uint8_t>(item.status.code()));
    PutString(out, item.status.message());
    PutU8(out, static_cast<uint8_t>(item.served_from));
    if (!item.status.ok()) continue;
    const WireResult& r = item.result;
    PutInt<uint32_t>(out, static_cast<uint32_t>(r.agg_labels.size()));
    for (const std::string& l : r.agg_labels) PutString(out, l);
    PutInt<uint32_t>(out, static_cast<uint32_t>(r.num_groups()));
    for (size_t g = 0; g < r.num_groups(); ++g) {
      PutString(out, r.group_labels[g]);
      PutInt<uint16_t>(out, static_cast<uint16_t>(r.key_codes[g].size()));
      for (int64_t code : r.key_codes[g]) PutInt<int64_t>(out, code);
      for (size_t a = 0; a < r.agg_labels.size(); ++a) {
        PutInt<uint64_t>(out, r.value_bits[g * r.agg_labels.size() + a]);
      }
    }
  }
}

Result<ResponseEnvelope> DecodeResponse(const std::string& payload) {
  Cursor c(payload);
  ResponseEnvelope resp;
  uint8_t kind = 0;
  CVOPT_RETURN_NOT_OK(c.GetU8(&kind));
  if (kind < 1 || kind > 3) {
    return Status::InvalidArgument("unknown response kind");
  }
  resp.kind = static_cast<MessageKind>(kind);
  CVOPT_RETURN_NOT_OK(c.GetInt(&resp.request_id));
  if (resp.kind == MessageKind::kMetrics) {
    CVOPT_RETURN_NOT_OK(c.GetString(&resp.metrics_text));
    return resp;
  }
  if (resp.kind == MessageKind::kShutdown) return resp;
  uint32_t count = 0;
  CVOPT_RETURN_NOT_OK(c.GetInt(&count));
  if (count > kMaxFrameBytes / 4) {
    return Status::InvalidArgument("absurd result count");
  }
  resp.results.resize(count);
  for (QueryResponseItem& item : resp.results) {
    uint8_t code = 0;
    std::string message;
    CVOPT_RETURN_NOT_OK(c.GetU8(&code));
    CVOPT_RETURN_NOT_OK(c.GetString(&message));
    item.status = code == 0
                      ? Status::OK()
                      : Status(static_cast<StatusCode>(code), std::move(message));
    uint8_t served = 0;
    CVOPT_RETURN_NOT_OK(c.GetU8(&served));
    item.served_from = static_cast<ServedFrom>(served);
    if (!item.status.ok()) continue;
    uint32_t aggs = 0;
    CVOPT_RETURN_NOT_OK(c.GetInt(&aggs));
    item.result.agg_labels.resize(aggs);
    for (std::string& l : item.result.agg_labels) {
      CVOPT_RETURN_NOT_OK(c.GetString(&l));
    }
    uint32_t groups = 0;
    CVOPT_RETURN_NOT_OK(c.GetInt(&groups));
    item.result.group_labels.resize(groups);
    item.result.key_codes.resize(groups);
    item.result.value_bits.resize(static_cast<size_t>(groups) * aggs);
    for (uint32_t g = 0; g < groups; ++g) {
      CVOPT_RETURN_NOT_OK(c.GetString(&item.result.group_labels[g]));
      uint16_t arity = 0;
      CVOPT_RETURN_NOT_OK(c.GetInt(&arity));
      item.result.key_codes[g].resize(arity);
      for (int64_t& code : item.result.key_codes[g]) {
        CVOPT_RETURN_NOT_OK(c.GetInt(&code));
      }
      for (uint32_t a = 0; a < aggs; ++a) {
        CVOPT_RETURN_NOT_OK(
            c.GetInt(&item.result.value_bits[static_cast<size_t>(g) * aggs + a]));
      }
    }
  }
  if (!c.AtEnd()) return Status::InvalidArgument("trailing response bytes");
  return resp;
}

Status WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("frame exceeds kMaxFrameBytes");
  }
  const uint32_t len = static_cast<uint32_t>(payload.size());
  char header[4];
  std::memcpy(header, &len, sizeof(len));
  struct Piece {
    const char* data;
    size_t size;
  } pieces[2] = {{header, sizeof(header)}, {payload.data(), payload.size()}};
  for (const Piece& p : pieces) {
    size_t sent = 0;
    while (sent < p.size) {
      const ssize_t n =
          ::send(fd, p.data + sent, p.size - sent, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Status::Internal(std::string("send failed: ") +
                                std::strerror(errno));
      }
      sent += static_cast<size_t>(n);
    }
  }
  return Status::OK();
}

namespace {

// Reads exactly `size` bytes. `clean_eof_ok`: an EOF before the first byte
// is a graceful close, not an error.
Status ReadExact(int fd, char* buf, size_t size, bool clean_eof_ok) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, buf + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(std::string("recv failed: ") +
                              std::strerror(errno));
    }
    if (n == 0) {
      if (clean_eof_ok && got == 0) {
        return Status::NotFound("connection closed");
      }
      return Status::Internal("connection closed mid-frame");
    }
    got += static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Result<std::string> ReadFrame(int fd) {
  char header[4];
  CVOPT_RETURN_NOT_OK(ReadExact(fd, header, sizeof(header),
                                /*clean_eof_ok=*/true));
  uint32_t len = 0;
  std::memcpy(&len, header, sizeof(len));
  if (len > kMaxFrameBytes) {
    return Status::InvalidArgument("announced frame length exceeds limit");
  }
  std::string payload(len, '\0');
  if (len > 0) {
    CVOPT_RETURN_NOT_OK(
        ReadExact(fd, payload.data(), len, /*clean_eof_ok=*/false));
  }
  return payload;
}

}  // namespace cvopt
