// ESLAM_HOT_ALIGN starts a hot kernel on a 64-byte boundary.
//
// Unpinned, a function starts wherever the code linked before it ends, so
// adding or deleting a few bytes anywhere earlier in link order moves
// every later kernel to a new offset within its cache line and the front
// end's 32-byte fetch windows.  That shift alone, with identical work, has
// moved slambench's loc_serve p99 by 20%.  Pinned, a kernel's placement
// moves only when its own code does.
#pragma once

#define ESLAM_HOT_ALIGN __attribute__((aligned(64)))
