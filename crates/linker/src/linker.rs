//! The linker proper: `dlopen`/`dlsym`/`dlclose` plus DLR's `dlforce`.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use cycada_sim::{clock, trace, Nanos};

use crate::error::LinkerError;
use crate::image::LibraryImage;
use crate::loaded::{InstanceId, LoadedLibrary, SymbolAddr};
use crate::Result;

/// Cost of mapping + relocating + running constructors for one fresh
/// library instance.
const LOAD_FRESH_NS: Nanos = 120_000;
/// Cost of `dlopen` returning an already loaded instance.
const OPEN_CACHED_NS: Nanos = 300;
/// Cost of a `dlsym` hash lookup.
const DLSYM_NS: Nanos = 200;

/// Identifier of a replica created by [`DynamicLinker::dlforce`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReplicaId(u64);

impl fmt::Display for ReplicaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "replica#{}", self.0)
    }
}

/// An isolated library namespace created by `dlforce`: the replica root and
/// every (replicable) dependency, freshly instanced.
///
/// "The linker keeps track of each replica, and the same `dlforce` \[handle\]
/// can be used to modify the behavior of other linker functions such as
/// `dlsym` and `dlopen` to search only those libraries loaded from the given
/// `dlforce` handle" (§8.1).
#[derive(Clone)]
pub struct Replica {
    id: ReplicaId,
    root: Arc<LoadedLibrary>,
    libs: HashMap<String, Arc<LoadedLibrary>>,
}

impl Replica {
    /// The replica's identity.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// The root library instance the replica was forced from.
    pub fn root(&self) -> &Arc<LoadedLibrary> {
        &self.root
    }

    /// Namespace-scoped `dlopen`: returns the replica's instance of `name`.
    ///
    /// # Errors
    ///
    /// Returns [`LinkerError::LibraryNotFound`] if `name` is not part of
    /// this replica's tree.
    pub fn dlopen(&self, name: &str) -> Result<Arc<LoadedLibrary>> {
        trace::bump(trace::Counter::NamespacedDlopens);
        trace::instant(trace::Category::Linker, "replica_dlopen", self.id.0);
        self.libs
            .get(name)
            .cloned()
            .ok_or_else(|| LinkerError::LibraryNotFound(name.to_owned()))
    }

    /// Namespace-scoped `dlsym`: searches only this replica's tree.
    ///
    /// # Errors
    ///
    /// Returns [`LinkerError::SymbolNotFound`] if no library in the replica
    /// exports `symbol`.
    pub fn dlsym(&self, symbol: &str) -> Result<SymbolAddr> {
        trace::bump(trace::Counter::NamespacedDlsyms);
        trace::instant(trace::Category::Linker, "replica_dlsym", self.id.0);
        self.root
            .symbol(symbol)
            .ok_or_else(|| LinkerError::SymbolNotFound {
                library: self.root.name().to_owned(),
                symbol: symbol.to_owned(),
            })
    }
}

impl fmt::Debug for Replica {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.id)
            .field("root", &self.root.name())
            .field("libs", &self.libs.len())
            .finish()
    }
}

#[derive(Default)]
struct DefaultNamespace {
    /// name -> (instance, dlopen refcount)
    loaded: HashMap<String, (Arc<LoadedLibrary>, u64)>,
}

/// The namespace a recursive load resolves and caches instances in.
enum LoadCache<'a> {
    /// The process-wide default namespace (ordinary `dlopen`).
    Default(&'a mut DefaultNamespace),
    /// An isolated replica namespace under construction (`dlforce`).
    Replica(&'a mut HashMap<String, Arc<LoadedLibrary>>),
}

impl LoadCache<'_> {
    fn get(&self, name: &str) -> Option<Arc<LoadedLibrary>> {
        match self {
            LoadCache::Default(ns) => ns.loaded.get(name).map(|(l, _)| l.clone()),
            LoadCache::Replica(libs) => libs.get(name).cloned(),
        }
    }

    fn insert(&mut self, name: &str, lib: Arc<LoadedLibrary>) {
        match self {
            LoadCache::Default(ns) => {
                ns.loaded.insert(name.to_owned(), (lib, 1));
            }
            LoadCache::Replica(libs) => {
                libs.insert(name.to_owned(), lib);
            }
        }
    }
}

/// The DLR-enabled dynamic linker for one simulated process.
pub struct DynamicLinker {
    images: Mutex<HashMap<String, LibraryImage>>,
    default_ns: Mutex<DefaultNamespace>,
    replicas: Mutex<HashMap<u64, Replica>>,
    next_instance: AtomicU64,
    next_replica: AtomicU64,
    next_base_va: AtomicU64,
    constructor_runs: Mutex<HashMap<String, u64>>,
}

impl DynamicLinker {
    /// Creates an empty linker.
    pub fn new() -> Self {
        DynamicLinker {
            images: Mutex::new(HashMap::new()),
            default_ns: Mutex::new(DefaultNamespace::default()),
            replicas: Mutex::new(HashMap::new()),
            next_instance: AtomicU64::new(1),
            next_replica: AtomicU64::new(1),
            next_base_va: AtomicU64::new(0x7000_0000_0000),
            constructor_runs: Mutex::new(HashMap::new()),
        }
    }

    /// Registers a library image ("installs the `.so` on disk").
    /// Re-registering a name replaces the image for future loads.
    pub fn register_image(&self, image: LibraryImage) {
        self.images.lock().insert(image.name().to_owned(), image);
    }

    /// How many times `name`'s constructor has run (each fresh load or
    /// replica instance runs it once) — the observable effect of DLR.
    pub fn constructor_runs(&self, name: &str) -> u64 {
        self.constructor_runs.lock().get(name).copied().unwrap_or(0)
    }

    // ------------------------------------------------------------------
    // Default namespace: dlopen / dlsym / dlclose
    // ------------------------------------------------------------------

    /// `dlopen`: returns the already loaded instance if present, otherwise
    /// loads `name` and its dependencies, running constructors bottom-up.
    ///
    /// # Errors
    ///
    /// Returns [`LinkerError::LibraryNotFound`] or
    /// [`LinkerError::CircularDependency`].
    pub fn dlopen(&self, name: &str) -> Result<Arc<LoadedLibrary>> {
        let mut ns = self.default_ns.lock();
        if let Some((lib, refs)) = ns.loaded.get_mut(name) {
            *refs += 1;
            clock::charge_ns(OPEN_CACHED_NS);
            return Ok(lib.clone());
        }
        let lib = self.load_tree(name, &mut LoadCache::Default(&mut ns), &mut Vec::new())?;
        ns.loaded.insert(name.to_owned(), (lib.clone(), 1));
        Ok(lib)
    }

    /// `dlsym` on a default-namespace handle: searches the instance and its
    /// dependency tree.
    ///
    /// # Errors
    ///
    /// Returns [`LinkerError::SymbolNotFound`].
    pub fn dlsym(&self, lib: &Arc<LoadedLibrary>, symbol: &str) -> Result<SymbolAddr> {
        clock::charge_ns(DLSYM_NS);
        lib.symbol(symbol).ok_or_else(|| LinkerError::SymbolNotFound {
            library: lib.name().to_owned(),
            symbol: symbol.to_owned(),
        })
    }

    /// `dlclose`: drops one reference; the instance unloads at zero.
    ///
    /// Returns `true` if the instance was actually unloaded.
    pub fn dlclose(&self, name: &str) -> bool {
        let mut ns = self.default_ns.lock();
        let Some((_, refs)) = ns.loaded.get_mut(name) else {
            return false;
        };
        *refs -= 1;
        if *refs == 0 {
            ns.loaded.remove(name);
            true
        } else {
            false
        }
    }

    /// Whether `name` is currently loaded in the default namespace.
    pub fn is_loaded(&self, name: &str) -> bool {
        self.default_ns.lock().loaded.contains_key(name)
    }

    // ------------------------------------------------------------------
    // DLR: dlforce
    // ------------------------------------------------------------------

    /// `dlforce`: loads `name` and all its replicable dependencies **as if
    /// they were never loaded before**, producing an isolated [`Replica`]
    /// with unique virtual addresses and freshly run constructors.
    ///
    /// Non-replicable dependencies (libc) are shared with the default
    /// namespace (loading them there on demand).
    ///
    /// # Errors
    ///
    /// Returns [`LinkerError::LibraryNotFound`] or
    /// [`LinkerError::CircularDependency`].
    pub fn dlforce(&self, name: &str) -> Result<Replica> {
        let mut tspan = trace::span(trace::Category::Linker, "dlforce");
        let mut replica_libs: HashMap<String, Arc<LoadedLibrary>> = HashMap::new();
        let root = self.load_tree(
            name,
            &mut LoadCache::Replica(&mut replica_libs),
            &mut Vec::new(),
        )?;
        // Register every instance in the replica namespace.
        for lib in root.tree() {
            replica_libs.insert(lib.name().to_owned(), lib);
        }
        let id = ReplicaId(self.next_replica.fetch_add(1, Ordering::Relaxed));
        trace::bump(trace::Counter::ReplicaLoads);
        tspan.set_arg(id.0);
        let replica = Replica {
            id,
            root,
            libs: replica_libs,
        };
        self.replicas.lock().insert(id.0, replica.clone());
        Ok(replica)
    }

    /// Unloads a replica namespace. Returns `true` if it existed.
    pub fn unload_replica(&self, id: ReplicaId) -> bool {
        self.replicas.lock().remove(&id.0).is_some()
    }

    /// Number of live replicas.
    pub fn replica_count(&self) -> usize {
        self.replicas.lock().len()
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    /// Recursively loads `name` and its dependencies, reusing instances
    /// already present in `cache` (the target namespace). Non-replicable
    /// dependencies always resolve through the default namespace, even from
    /// a replica load.
    fn load_tree(
        &self,
        name: &str,
        cache: &mut LoadCache<'_>,
        chain: &mut Vec<String>,
    ) -> Result<Arc<LoadedLibrary>> {
        if chain.iter().any(|c| c == name) {
            chain.push(name.to_owned());
            return Err(LinkerError::CircularDependency(chain.clone()));
        }
        chain.push(name.to_owned());

        let image = self
            .images
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| LinkerError::LibraryNotFound(name.to_owned()))?;

        let mut deps = Vec::new();
        for dep_name in image.deps() {
            let replicable = self
                .images
                .lock()
                .get(dep_name)
                .map(LibraryImage::replicable)
                .ok_or_else(|| LinkerError::LibraryNotFound(dep_name.clone()))?;

            let dep = if !replicable && matches!(cache, LoadCache::Replica(_)) {
                // libc-style: a replica still links the single shared
                // default-namespace instance.
                self.shared_instance(dep_name, chain)?
            } else if let Some(existing) = cache.get(dep_name) {
                existing
            } else {
                let loaded = self.load_tree(dep_name, cache, chain)?;
                cache.insert(dep_name, loaded.clone());
                loaded
            };
            deps.push(dep);
        }
        chain.pop();

        Ok(self.instantiate(image, deps))
    }

    /// Gets or creates the single shared (default-namespace) instance of a
    /// non-replicable library. Called from replica loads, which do not hold
    /// the default-namespace lock.
    fn shared_instance(
        &self,
        name: &str,
        chain: &mut Vec<String>,
    ) -> Result<Arc<LoadedLibrary>> {
        let mut ns = self.default_ns.lock();
        if let Some((lib, _)) = ns.loaded.get(name) {
            return Ok(lib.clone());
        }
        let lib = self.load_tree(name, &mut LoadCache::Default(&mut ns), chain)?;
        ns.loaded.insert(name.to_owned(), (lib.clone(), 1));
        Ok(lib)
    }

    fn instantiate(&self, image: LibraryImage, deps: Vec<Arc<LoadedLibrary>>) -> Arc<LoadedLibrary> {
        let instance = InstanceId(self.next_instance.fetch_add(1, Ordering::Relaxed));
        // Each mapping gets a disjoint 1 MiB VA window.
        let base_va = self.next_base_va.fetch_add(0x10_0000, Ordering::Relaxed);
        *self
            .constructor_runs
            .lock()
            .entry(image.name().to_owned())
            .or_insert(0) += 1;
        clock::charge_ns(LOAD_FRESH_NS);
        Arc::new(LoadedLibrary::new(image, instance, base_va, deps))
    }
}

impl Default for DynamicLinker {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for DynamicLinker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynamicLinker")
            .field("images", &self.images.lock().len())
            .field("loaded", &self.default_ns.lock().loaded.len())
            .field("replicas", &self.replicas.lock().len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the NVIDIA-style dependency chain from the paper:
    /// libGLESv2_tegra.so -> libnvrm.so -> libnvos.so, all over libc.
    fn nvidia_linker() -> DynamicLinker {
        let linker = DynamicLinker::new();
        linker.register_image(
            LibraryImage::builder("libc.so")
                .symbols(["malloc", "free"])
                .non_replicable()
                .build(),
        );
        linker.register_image(
            LibraryImage::builder("libnvos.so")
                .deps(["libc.so"])
                .symbols(["NvOsAlloc"])
                .constructor(|| Arc::new(Mutex::new(0u64)))
                .build(),
        );
        linker.register_image(
            LibraryImage::builder("libnvrm.so")
                .deps(["libnvos.so"])
                .symbols(["NvRmOpen"])
                .build(),
        );
        linker.register_image(
            LibraryImage::builder("libGLESv2_tegra.so")
                .deps(["libnvrm.so"])
                .symbols(["glDrawArrays", "glClear"])
                .build(),
        );
        linker
    }

    #[test]
    fn dlopen_is_load_once() {
        let linker = nvidia_linker();
        let a = linker.dlopen("libGLESv2_tegra.so").unwrap();
        let b = linker.dlopen("libGLESv2_tegra.so").unwrap();
        assert_eq!(a.instance_id(), b.instance_id());
        assert_eq!(linker.constructor_runs("libGLESv2_tegra.so"), 1);
        assert_eq!(linker.constructor_runs("libnvos.so"), 1);
    }

    #[test]
    fn dlopen_missing_library_errors() {
        let linker = nvidia_linker();
        assert!(matches!(
            linker.dlopen("libmissing.so"),
            Err(LinkerError::LibraryNotFound(name)) if name == "libmissing.so"
        ));
    }

    #[test]
    fn dlsym_searches_tree() {
        let linker = nvidia_linker();
        let gles = linker.dlopen("libGLESv2_tegra.so").unwrap();
        assert!(linker.dlsym(&gles, "glDrawArrays").is_ok());
        // Transitive dependency symbol.
        assert!(linker.dlsym(&gles, "NvOsAlloc").is_ok());
        assert!(matches!(
            linker.dlsym(&gles, "eglInitialize"),
            Err(LinkerError::SymbolNotFound { .. })
        ));
    }

    #[test]
    fn dlclose_refcounts() {
        let linker = nvidia_linker();
        linker.dlopen("libnvos.so").unwrap();
        linker.dlopen("libnvos.so").unwrap();
        assert!(!linker.dlclose("libnvos.so"), "still referenced");
        assert!(linker.dlclose("libnvos.so"), "last reference unloads");
        assert!(!linker.is_loaded("libnvos.so"));
        assert!(!linker.dlclose("libnvos.so"), "double close is a no-op");
    }

    #[test]
    fn dlforce_creates_fresh_instances_with_unique_addresses() {
        let linker = nvidia_linker();
        let shared = linker.dlopen("libGLESv2_tegra.so").unwrap();
        let replica = linker.dlforce("libGLESv2_tegra.so").unwrap();

        // New instance, new base VA.
        assert_ne!(replica.root().instance_id(), shared.instance_id());
        assert_ne!(replica.root().base_va(), shared.base_va());

        // Every symbol resolves to a different address than the shared one.
        let shared_sym = shared.symbol("glDrawArrays").unwrap();
        let replica_sym = replica.dlsym("glDrawArrays").unwrap();
        assert_ne!(shared_sym.va, replica_sym.va);

        // Dependencies were re-instanced too ("isolated trees").
        let shared_nvos = shared.symbol("NvOsAlloc").unwrap();
        let replica_nvos = replica.dlsym("NvOsAlloc").unwrap();
        assert_ne!(shared_nvos.instance, replica_nvos.instance);

        // Constructors ran again for the whole replicable tree.
        assert_eq!(linker.constructor_runs("libGLESv2_tegra.so"), 2);
        assert_eq!(linker.constructor_runs("libnvos.so"), 2);
    }

    #[test]
    fn dlforce_shares_libc() {
        let linker = nvidia_linker();
        linker.dlopen("libGLESv2_tegra.so").unwrap();
        let r1 = linker.dlforce("libGLESv2_tegra.so").unwrap();
        let r2 = linker.dlforce("libGLESv2_tegra.so").unwrap();
        // "We do not reload libc; all instances use a single, shared libc."
        assert_eq!(linker.constructor_runs("libc.so"), 1);
        let c1 = r1.dlopen("libc.so").unwrap();
        let c2 = r2.dlopen("libc.so").unwrap();
        assert_eq!(c1.instance_id(), c2.instance_id());
    }

    #[test]
    fn replica_state_is_isolated() {
        let linker = nvidia_linker();
        let r1 = linker.dlforce("libnvos.so").unwrap();
        let r2 = linker.dlforce("libnvos.so").unwrap();
        let s1 = r1.root().state::<Mutex<u64>>().unwrap();
        let s2 = r2.root().state::<Mutex<u64>>().unwrap();
        *s1.lock() = 7;
        assert_eq!(*s2.lock(), 0, "replica globals are independent");
    }

    #[test]
    fn replica_scoped_lookup_only_sees_own_tree() {
        let linker = nvidia_linker();
        let replica = linker.dlforce("libnvrm.so").unwrap();
        assert!(replica.dlsym("NvRmOpen").is_ok());
        assert!(replica.dlsym("NvOsAlloc").is_ok());
        // glDrawArrays lives outside this replica's tree.
        assert!(replica.dlsym("glDrawArrays").is_err());
        assert!(replica.dlopen("libGLESv2_tegra.so").is_err());
        for name in ["libc.so", "libnvos.so", "libnvrm.so"] {
            assert!(replica.dlopen(name).is_ok(), "{name} is in the replica");
        }
    }

    #[test]
    fn replica_registry_and_unload() {
        let linker = nvidia_linker();
        let replica = linker.dlforce("libnvos.so").unwrap();
        assert_eq!(linker.replica_count(), 1);
        assert!(linker.unload_replica(replica.id()));
        assert!(!linker.unload_replica(replica.id()));
        assert_eq!(linker.replica_count(), 0);
    }

    #[test]
    fn circular_dependency_detected() {
        let linker = DynamicLinker::new();
        linker.register_image(LibraryImage::builder("a.so").deps(["b.so"]).build());
        linker.register_image(LibraryImage::builder("b.so").deps(["a.so"]).build());
        assert!(matches!(
            linker.dlopen("a.so"),
            Err(LinkerError::CircularDependency(_))
        ));
    }

    #[test]
    fn diamond_dependency_loads_once_per_namespace() {
        let linker = DynamicLinker::new();
        linker.register_image(LibraryImage::builder("base.so").build());
        linker.register_image(LibraryImage::builder("l.so").deps(["base.so"]).build());
        linker.register_image(LibraryImage::builder("r.so").deps(["base.so"]).build());
        linker.register_image(
            LibraryImage::builder("top.so").deps(["l.so", "r.so"]).build(),
        );
        let top = linker.dlopen("top.so").unwrap();
        assert_eq!(linker.constructor_runs("base.so"), 1);
        assert_eq!(top.tree().len(), 4);

        let replica = linker.dlforce("top.so").unwrap();
        assert_eq!(
            linker.constructor_runs("base.so"),
            2,
            "one fresh base per replica, shared within it"
        );
        assert_eq!(replica.root().tree().len(), 4);
    }
}
