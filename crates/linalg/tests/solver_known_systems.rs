//! Solver-stack regression tests against small systems with known closed-form
//! solutions, so a regression in any one solver is caught below the thermal /
//! scheduler integration layer.

use thermsched_linalg::{
    BandedCholesky, CholeskyDecomposition, CsrMatrix, DenseMatrix, LuDecomposition, Triplet,
};

fn assert_close(actual: &[f64], expected: &[f64], tol: f64, label: &str) {
    assert_eq!(actual.len(), expected.len(), "{label}: length mismatch");
    for (i, (a, e)) in actual.iter().zip(expected).enumerate() {
        assert!(
            (a - e).abs() <= tol,
            "{label}: component {i} differs: got {a}, expected {e}"
        );
    }
}

/// 1-D Poisson matrix `tridiag(-1, 2, -1)` of dimension `n`, dense.
fn poisson_dense(n: usize) -> DenseMatrix {
    let mut m = DenseMatrix::zeros(n, n);
    for i in 0..n {
        m.set(i, i, 2.0);
        if i + 1 < n {
            m.set(i, i + 1, -1.0);
            m.set(i + 1, i, -1.0);
        }
    }
    m
}

/// The same Poisson matrix in CSR form.
fn poisson_csr(n: usize) -> CsrMatrix {
    let mut t = Vec::new();
    for i in 0..n {
        t.push(Triplet::new(i, i, 2.0));
        if i + 1 < n {
            t.push(Triplet::new(i, i + 1, -1.0));
            t.push(Triplet::new(i + 1, i, -1.0));
        }
    }
    CsrMatrix::from_triplets(n, n, &t).expect("valid triplets")
}

/// With `b = 1`, the discrete 1-D Poisson problem has the exact solution
/// `x_i = (i+1) * (n - i) / 2` (0-indexed).
fn poisson_exact(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i + 1) * (n - i)) as f64 / 2.0).collect()
}

#[test]
fn lu_solves_2x2_with_known_solution() {
    // [[4, 1], [1, 3]] x = [1, 2]  =>  x = [1/11, 7/11] (Cramer's rule).
    let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
    let lu = LuDecomposition::new(&a).unwrap();
    let x = lu.solve(&[1.0, 2.0]).unwrap();
    assert_close(&x, &[1.0 / 11.0, 7.0 / 11.0], 1e-12, "lu 2x2");
}

#[test]
fn cholesky_solves_2x2_with_known_solution() {
    let a = DenseMatrix::from_rows(&[vec![4.0, 1.0], vec![1.0, 3.0]]).unwrap();
    let chol = CholeskyDecomposition::new(&a).unwrap();
    let x = chol.solve(&[1.0, 2.0]).unwrap();
    assert_close(&x, &[1.0 / 11.0, 7.0 / 11.0], 1e-12, "cholesky 2x2");
}

#[test]
fn lu_solves_hilbert_3x3_exactly() {
    // The 3x3 Hilbert matrix has the integer inverse [[9,-36,30],
    // [-36,192,-180],[30,-180,180]]; with b = e1 the solution is its first
    // column.
    let h = DenseMatrix::from_rows(&[
        vec![1.0, 1.0 / 2.0, 1.0 / 3.0],
        vec![1.0 / 2.0, 1.0 / 3.0, 1.0 / 4.0],
        vec![1.0 / 3.0, 1.0 / 4.0, 1.0 / 5.0],
    ])
    .unwrap();
    let lu = LuDecomposition::new(&h).unwrap();
    let x = lu.solve(&[1.0, 0.0, 0.0]).unwrap();
    assert_close(&x, &[9.0, -36.0, 30.0], 1e-9, "lu hilbert3");
}

#[test]
fn direct_solvers_match_poisson_closed_form() {
    let n = 7;
    let a = poisson_dense(n);
    let b = vec![1.0; n];
    let expected = poisson_exact(n);

    let lu = LuDecomposition::new(&a).unwrap().solve(&b).unwrap();
    assert_close(&lu, &expected, 1e-10, "lu poisson");

    let chol = CholeskyDecomposition::new(&a).unwrap().solve(&b).unwrap();
    assert_close(&chol, &expected, 1e-10, "cholesky poisson");

    let banded = BandedCholesky::new(&poisson_csr(n))
        .unwrap()
        .solve(&b)
        .unwrap();
    assert_close(&banded, &expected, 1e-10, "banded cholesky poisson");
}

#[test]
fn lu_cholesky_and_banded_cholesky_agree_on_an_spd_conductance_like_system() {
    // A small system shaped like the thermal crate's conductance matrices:
    // strictly diagonally dominant, symmetric, with off-diagonal couplings of
    // mixed magnitude.
    let rows = [
        vec![5.0, -1.0, 0.0, -2.0],
        vec![-1.0, 4.5, -1.5, 0.0],
        vec![0.0, -1.5, 6.0, -1.0],
        vec![-2.0, 0.0, -1.0, 7.0],
    ];
    let dense = DenseMatrix::from_rows(&rows).unwrap();
    assert!(dense.is_symmetric(0.0));
    assert!(dense.is_diagonally_dominant());

    let mut triplets = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v != 0.0 {
                triplets.push(Triplet::new(i, j, v));
            }
        }
    }
    let sparse = CsrMatrix::from_triplets(4, 4, &triplets).unwrap();
    let b = [3.0, -1.0, 2.5, 0.5];

    let x_lu = LuDecomposition::new(&dense).unwrap().solve(&b).unwrap();
    let x_chol = CholeskyDecomposition::new(&dense)
        .unwrap()
        .solve(&b)
        .unwrap();
    let x_banded = BandedCholesky::new(&sparse).unwrap().solve(&b).unwrap();

    assert_close(&x_chol, &x_lu, 1e-10, "cholesky vs lu");
    assert_close(&x_banded, &x_lu, 1e-10, "banded cholesky vs lu");

    // And the solution actually satisfies the system.
    let ax = dense.mul_vec(&x_lu).unwrap();
    assert_close(&ax, &b, 1e-10, "residual");
}

#[test]
fn cholesky_rejects_a_non_spd_matrix() {
    // Symmetric but indefinite (eigenvalues 3 and -1).
    let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]).unwrap();
    assert!(CholeskyDecomposition::new(&a).is_err());
}

#[test]
fn lu_rejects_a_singular_matrix() {
    let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).unwrap();
    assert!(LuDecomposition::new(&a).is_err());
}

#[test]
fn solvers_reject_dimension_mismatches() {
    let a = poisson_dense(3);
    let lu = LuDecomposition::new(&a).unwrap();
    assert!(lu.solve(&[1.0, 2.0]).is_err());

    let s = poisson_csr(3);
    assert!(BandedCholesky::new(&s).unwrap().solve(&[1.0]).is_err());
}
