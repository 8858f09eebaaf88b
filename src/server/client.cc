#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dt::server {

DtClient::DtClient(int fd, ClientOptions opts) : fd_(fd), opts_(opts) {}

DtClient::~DtClient() { Close(); }

void DtClient::Close() {
  if (fd_ >= 0) {
    close(fd_);
    fd_ = -1;
  }
}

Result<std::unique_ptr<DtClient>> DtClient::Connect(const std::string& host,
                                                    uint16_t port,
                                                    ClientOptions opts) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof addr);
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("bad host (IPv4 literal expected): " +
                                   host);
  }
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    Status st =
        Status::IOError(std::string("connect: ") + std::strerror(errno));
    close(fd);
    return st;
  }
  // Each request is one whole frame: send it now rather than wait for
  // the ACK of the previous one (Nagle), which stalls pipelined sends.
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::unique_ptr<DtClient>(new DtClient(fd, opts));
}

Result<uint64_t> DtClient::Send(const query::QueryRequest& req) {
  if (fd_ < 0) return Status::IOError("client closed");
  RequestEnvelope env;
  env.id = next_id_++;
  env.request = req;
  std::string frame;
  DT_RETURN_NOT_OK(
      EncodeFrame(EncodeRequestEnvelope(env), opts_.max_frame_size, &frame));
  size_t off = 0;
  while (off < frame.size()) {
    ssize_t n = send(fd_, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    Status st = Status::IOError(std::string("send: ") + std::strerror(errno));
    Close();
    return st;
  }
  return env.id;
}

Result<ResponseEnvelope> DtClient::ReceiveInternal(uint64_t want_id,
                                                   bool match_id) {
  if (match_id) {
    auto it = stashed_.find(want_id);
    if (it != stashed_.end()) {
      ResponseEnvelope env = std::move(it->second);
      stashed_.erase(it);
      return env;
    }
  } else if (!stashed_.empty()) {
    auto it = stashed_.begin();
    ResponseEnvelope env = std::move(it->second);
    stashed_.erase(it);
    return env;
  }
  if (fd_ < 0) return Status::IOError("client closed");
  while (true) {
    storage::DocValue payload;
    size_t consumed = 0;
    DT_RETURN_NOT_OK(
        TryDecodeFrame(inbuf_, opts_.max_frame_size, &payload, &consumed));
    if (consumed > 0) {
      inbuf_.erase(0, consumed);
      DT_ASSIGN_OR_RETURN(ResponseEnvelope env,
                          DecodeResponseEnvelope(payload));
      if (!match_id || env.id == want_id) return env;
      stashed_.emplace(env.id, std::move(env));
      continue;
    }
    char buf[64 * 1024];
    ssize_t n = recv(fd_, buf, sizeof buf, 0);
    if (n > 0) {
      inbuf_.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    Status st = n == 0 ? Status::IOError("connection closed by server")
                       : Status::IOError(std::string("recv: ") +
                                         std::strerror(errno));
    Close();
    return st;
  }
}

Result<ResponseEnvelope> DtClient::Receive() {
  return ReceiveInternal(0, /*match_id=*/false);
}

Result<query::QueryResponse> DtClient::Call(const query::QueryRequest& req) {
  DT_ASSIGN_OR_RETURN(uint64_t id, Send(req));
  DT_ASSIGN_OR_RETURN(ResponseEnvelope env,
                      ReceiveInternal(id, /*match_id=*/true));
  if (!env.status.ok()) return env.status;
  return std::move(env.response);
}

}  // namespace dt::server
